package comm

import (
	"fmt"

	"repro/internal/trace"
)

// EventPolicy selects how an Event memorizes signals that arrive while no
// actor is waiting (the paper's section 2: "fugitive (no memorization like
// SystemC sc_event), boolean (one level of memorization) or counter").
type EventPolicy uint8

const (
	// Fugitive events do not memorize: a signal with no waiter is lost.
	// A signal wakes every actor waiting at that instant (broadcast), like
	// a SystemC sc_event.
	Fugitive EventPolicy = iota
	// Boolean events memorize one occurrence: a signal with no waiter sets
	// a flag consumed by the next Wait. With waiters present, one waiter
	// (FIFO) is woken per signal.
	Boolean
	// Counter events memorize every occurrence in a counter, like a
	// semaphore: each Wait consumes one count, each signal wakes one waiter
	// (FIFO) or increments the counter.
	Counter
)

func (p EventPolicy) String() string {
	switch p {
	case Fugitive:
		return "fugitive"
	case Boolean:
		return "boolean"
	case Counter:
		return "counter"
	}
	return "invalid"
}

// Event is an MCSE synchronization relation between actors. Unlike the raw
// kernel events of package sim, waiting and signalling go through the RTOS
// model of the actors involved, so blocking a software task incurs context
// switches and scheduling overhead.
type Event struct {
	rec    *trace.Recorder
	name   string
	policy EventPolicy

	count   int // pending occurrences (0/1 for Boolean, any for Counter)
	waiters waitQueue
	signals uint64
}

// NewEvent creates an event with the given memorization policy. rec may be
// nil to disable tracing.
func NewEvent(rec *trace.Recorder, name string, policy EventPolicy) *Event {
	if policy > Counter {
		panic(fmt.Sprintf("comm: invalid event policy %d", policy))
	}
	return &Event{rec: rec, name: name, policy: policy}
}

// Name returns the event's name.
func (e *Event) Name() string { return e.name }

// Policy returns the event's memorization policy.
func (e *Event) Policy() EventPolicy { return e.policy }

// Pending returns the number of memorized occurrences.
func (e *Event) Pending() int { return e.count }

// Waiters returns the number of actors currently blocked on the event.
func (e *Event) Waiters() int { return e.waiters.len() }

// Signals returns the total number of Signal calls.
func (e *Event) Signals() uint64 { return e.signals }

// Signal notifies the event on behalf of actor by (used for tracing; the
// caller's simulated time is never consumed). Depending on the policy the
// signal wakes waiters or is memorized.
func (e *Event) Signal(by Actor) { e.signalFrom(by.Name()) }

// SignalFrom notifies the event on behalf of a named non-actor source — a
// raw kernel process or method modelling hardware below the task level.
func (e *Event) SignalFrom(source string) { e.signalFrom(source) }

func (e *Event) signalFrom(source string) {
	e.signals++
	e.rec.Access(source, e.name, trace.AccessSignal)
	switch e.policy {
	case Fugitive:
		// Broadcast to the actors waiting now; lost otherwise.
		for !e.waiters.empty() {
			e.waiters.popFIFO().Resume()
		}
	case Boolean:
		if !e.waiters.empty() {
			e.waiters.popFIFO().Resume()
			return
		}
		e.count = 1
		e.recordDepth()
	case Counter:
		if !e.waiters.empty() {
			e.waiters.popFIFO().Resume()
			return
		}
		e.count++
		e.recordDepth()
	}
}

// Wait blocks actor a until the event occurs. If an occurrence is memorized
// it is consumed immediately and the actor does not block.
func (e *Event) Wait(a Actor) {
	if e.WaitAttempt(a) {
		return
	}
	a.Suspend(false, e.name)
	e.WaitWake(a)
}

// WaitAttempt is the non-suspending half of Wait, for callers that cannot
// park a goroutine (the continuation engine). It records the wait, consumes a
// memorized occurrence if one is available (returning true), or records the
// block and enqueues a as a waiter (returning false). A false return means a
// is now queued: a later Signal grants the occurrence by resuming a directly,
// after which the caller completes the wait with WaitWake.
func (e *Event) WaitAttempt(a Actor) bool {
	name := a.Name()
	e.rec.Access(name, e.name, trace.AccessWait)
	if e.count > 0 {
		e.count--
		e.recordDepth()
		return true
	}
	e.rec.Access(name, e.name, trace.AccessBlocked)
	e.waiters.push(a)
	return false
}

// WaitWake records the wakeup that completes a blocked Wait. Call it once
// after a false WaitAttempt, when the actor has been resumed and runs again.
func (e *Event) WaitWake(a Actor) {
	e.rec.Access(a.Name(), e.name, trace.AccessWakeup)
}

func (e *Event) recordDepth() {
	e.rec.Depth(e.name, e.count, 1)
}
