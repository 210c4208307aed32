package rtos

import (
	"repro/internal/comm"
	"repro/internal/sim"
)

// This file defines the yield-op vocabulary of a Program. One body, two ways
// to run it: the continuation task engine (engine_cont.go) resumes it inline,
// on the kernel's own goroutine, as an explicit state machine; Program.Run
// executes it on the caller's own simulation thread — a goroutine software
// task, a hardware task or an ISR body — by making the blocking call each op
// stands for. The table is read left to right by Run and right to left by a
// hand-written continuation:
//
//	blocking call               yield op
//	ctx.Execute(d)              Compute(d)
//	ctx.Delay(d) / hw.Wait(d)   WaitFor(d)
//	ctx.Yield()                 YieldCPU()
//	mutex.Lock(ctx)             LockMutex(m)
//	event.Wait(ctx)             WaitOn(e)
//	queue.Put(ctx, v)           PutMsg(q, v)
//	queue.Get(ctx)              GetMsg(q, &dst)
//	return                      Finish()
//
// Non-blocking calls (Unlock, Signal, TryPut, SetPriority, Kick, Raise...)
// need no yield: run them inline before returning the next Yield, or as a
// ProgramBuilder.Act (any actor) or Do (software task) step.

// Continuation is a task body in resumable form. Resume advances the state
// machine and returns the next yield op; it runs in kernel context (a
// sim.Method) and must not block. Reset rewinds the body to its start: the
// engine calls it before the first job and before each periodic cycle.
type Continuation interface {
	Resume(*TaskCtx) Yield
	Reset()
}

// yieldKind discriminates the yield ops. The zero value is yieldFinish so a
// zero Yield ends the job, which lets Resume fall off the end of a Program
// safely.
type yieldKind uint8

const (
	yieldFinish yieldKind = iota
	yieldCompute
	yieldComputeFn
	yieldSleep
	yieldYieldCPU
	yieldAcquire
	yieldAwait
)

// Yield is one scheduling-relevant operation of a continuation task body.
// Build values with the constructors below; the zero value is Finish().
type Yield struct {
	kind yieldKind
	d    sim.Time
	// resource selects the WaitingResource trace state for blocking acquire
	// ops (mutual exclusion) over the plain Waiting state.
	resource bool
	// dur computes a data-dependent Compute duration at run time.
	dur func(comm.Actor) sim.Time
	// attempt is the non-suspending half of a blocking operation: it either
	// completes the op (true) or enqueues the actor as a waiter (false).
	attempt func(comm.Actor) bool
	// wake completes a grant-on-resume op after the actor runs again.
	wake func(comm.Actor)
}

// Compute consumes d of processor time, exactly like TaskCtx.Execute: the
// task occupies the processor and may be preempted at any instant in
// between, with the remaining duration recomputed at the preemption instant.
func Compute(d sim.Time) Yield { return Yield{kind: yieldCompute, d: d} }

// ComputeFn is Compute with the duration computed at run time (data-dependent
// execution time). fn runs in kernel context and must not block.
func ComputeFn(fn func(*TaskCtx) sim.Time) Yield {
	return Yield{kind: yieldComputeFn, dur: func(a comm.Actor) sim.Time { return fn(a.(*TaskCtx)) }}
}

// WaitFor suspends the task for d without using the processor, exactly like
// TaskCtx.Delay. A zero duration is a no-op.
func WaitFor(d sim.Time) Yield { return Yield{kind: yieldSleep, d: d} }

// YieldCPU voluntarily releases the processor, exactly like TaskCtx.Yield:
// the task returns to the ready queue and the scheduler elects the next task
// (possibly this one again).
func YieldCPU() Yield { return Yield{kind: yieldYieldCPU} }

// Finish ends the current job: a periodic task completes its cycle and
// sleeps until the next release, a one-shot task terminates.
func Finish() Yield { return Yield{} }

// IsFinish reports whether the yield ends the job (the zero value).
func (y Yield) IsFinish() bool { return y.kind == yieldFinish }

// WaitOn blocks until the comm event occurs, exactly like e.Wait(ctx).
func WaitOn(e *comm.Event) Yield {
	return Yield{
		kind:    yieldAwait,
		attempt: e.WaitAttempt,
		wake:    e.WaitWake,
	}
}

// LockMutex acquires the comm mutex, exactly like m.Lock(ctx): the task
// blocks in the WaitingResource state while another actor owns the lock and
// re-attempts on each wake (another waiter may win the race). Release with an
// inline m.Unlock(ctx) — unlocking never blocks.
func LockMutex(m *comm.Mutex) Yield {
	return Yield{
		kind:     yieldAcquire,
		resource: true,
		attempt:  m.LockAttempt,
	}
}

// PutMsg sends v into the comm message queue, exactly like q.Put(ctx, v):
// the task blocks while the queue is full.
func PutMsg[T any](q *comm.Queue[T], v T) Yield {
	return Yield{
		kind:    yieldAcquire,
		attempt: func(a comm.Actor) bool { return q.PutAttempt(a, v) },
	}
}

// GetMsg receives from the comm message queue, exactly like q.Get(ctx): the
// task blocks while the queue is empty. The received value is stored in
// *dst (pass nil to discard it).
func GetMsg[T any](q *comm.Queue[T], dst *T) Yield {
	return Yield{
		kind: yieldAcquire,
		attempt: func(a comm.Actor) bool {
			v, ok := q.GetAttempt(a)
			if ok && dst != nil {
				*dst = v
			}
			return ok
		},
	}
}
