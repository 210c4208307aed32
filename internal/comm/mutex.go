package comm

import (
	"fmt"

	"repro/internal/trace"
)

// Mutex provides mutual exclusion between actors. The wait queue is
// priority-ordered (FIFO among equals), as in most RTOS implementations.
// A Mutex is recursive: the owner may lock it again.
//
// With Inherit enabled the mutex applies the priority-inheritance protocol:
// while a higher-priority actor is blocked on the lock, the owner's
// effective priority is boosted, bounding the priority-inversion time the
// paper illustrates in Figure 7. (The paper's own remedy — disabling
// preemption around the access — is available through
// rtos.TaskCtx.DisablePreemption; this protocol is the classical
// alternative.)
type Mutex struct {
	rec  *trace.Recorder
	name string
	// Inherit enables the priority-inheritance protocol for owners that
	// implement PriorityBooster.
	inherit bool
	// useCeiling enables the immediate priority-ceiling protocol.
	useCeiling bool
	ceiling    int

	owner     Actor
	recursion int
	waiters   waitQueue
	boosts    int // boosts applied to the current owner
}

// NewMutex creates a mutual-exclusion lock. rec may be nil to disable
// tracing.
func NewMutex(rec *trace.Recorder, name string) *Mutex {
	m := &Mutex{rec: rec, name: name}
	m.recordDepth()
	return m
}

// NewInheritMutex creates a lock applying the priority-inheritance protocol.
func NewInheritMutex(rec *trace.Recorder, name string) *Mutex {
	m := NewMutex(rec, name)
	m.inherit = true
	return m
}

// NewCeilingMutex creates a lock applying the immediate priority-ceiling
// protocol (highest-locker protocol): any owner implementing
// PriorityBooster runs at the ceiling priority for the whole critical
// section. With the ceiling set to the highest priority of any task that
// ever uses the lock, priority inversion is bounded and the classical
// deadlocks between nested critical sections cannot occur.
func NewCeilingMutex(rec *trace.Recorder, name string, ceiling int) *Mutex {
	m := NewMutex(rec, name)
	m.ceiling = ceiling
	m.useCeiling = true
	return m
}

// Name returns the lock's name.
func (m *Mutex) Name() string { return m.name }

// Owner returns the current owner, nil when free.
func (m *Mutex) Owner() Actor { return m.owner }

// Waiters returns the number of blocked actors.
func (m *Mutex) Waiters() int { return m.waiters.len() }

// Lock acquires the lock for actor a, blocking while another actor owns it.
func (m *Mutex) Lock(a Actor) {
	for !m.LockAttempt(a) {
		a.Suspend(true, m.name)
	}
}

// LockAttempt is the non-suspending half of Lock, for callers that cannot
// park a goroutine (the continuation engine). It either acquires the lock
// (true) or records the block, applies priority inheritance and enqueues a
// as a waiter (false). After a false return the actor is resumed when the
// lock is released and must re-attempt — another waiter may win the race,
// exactly as Lock's retry loop allows.
func (m *Mutex) LockAttempt(a Actor) bool {
	if m.owner == a {
		m.recursion++
		return true
	}
	name := a.Name()
	if m.owner != nil {
		m.rec.Access(name, m.name, trace.AccessBlocked)
		if m.inherit {
			if b, ok := m.owner.(PriorityBooster); ok && a.Priority() > m.owner.Priority() {
				b.BoostPriority(a.Priority())
				m.boosts++
			}
		}
		m.waiters.push(a)
		return false
	}
	m.owner = a
	m.recursion = 1
	if m.useCeiling {
		if b, ok := a.(PriorityBooster); ok {
			b.BoostPriority(m.ceiling)
			m.boosts++
		}
	}
	m.rec.Access(name, m.name, trace.AccessLock)
	m.recordDepth()
	return true
}

// Unlock releases the lock; a must be the owner. The highest-priority
// waiter, if any, is woken.
func (m *Mutex) Unlock(a Actor) {
	if m.owner != a {
		panic(fmt.Sprintf("comm: actor %q unlocking mutex %q owned by %v", a.Name(), m.name, ownerName(m.owner)))
	}
	m.recursion--
	if m.recursion > 0 {
		return
	}
	if b, ok := a.(PriorityBooster); ok {
		for ; m.boosts > 0; m.boosts-- {
			b.UnboostPriority()
		}
	}
	m.boosts = 0
	m.owner = nil
	m.rec.Access(a.Name(), m.name, trace.AccessUnlock)
	m.recordDepth()
	if !m.waiters.empty() {
		m.waiters.popPriority().Resume()
	}
}

func (m *Mutex) recordDepth() {
	held := 0
	if m.owner != nil {
		held = 1
	}
	m.rec.Depth(m.name, held, 1)
}

func ownerName(a Actor) string {
	if a == nil {
		return "nobody"
	}
	return a.Name()
}
