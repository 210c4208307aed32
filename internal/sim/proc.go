package sim

import (
	"fmt"
	"iter"
)

// ProcState is the lifecycle state of a simulation process.
type ProcState uint8

const (
	// ProcNew means the process has been spawned but its body has not
	// started executing yet (lazy start on first activation).
	ProcNew ProcState = iota
	// ProcRunnable means the process is queued to run in the current
	// evaluate phase.
	ProcRunnable
	// ProcRunning means the process is the one currently executing.
	ProcRunning
	// ProcWaiting means the process is suspended on events and/or a timeout.
	ProcWaiting
	// ProcTerminated means the process function has returned or the process
	// was killed at kernel shutdown.
	ProcTerminated
)

func (s ProcState) String() string {
	switch s {
	case ProcNew:
		return "new"
	case ProcRunnable:
		return "runnable"
	case ProcRunning:
		return "running"
	case ProcWaiting:
		return "waiting"
	case ProcTerminated:
		return "terminated"
	}
	return "invalid"
}

// killToken is panicked inside a process body to unwind it at kernel
// shutdown. The body's recover distinguishes it from model panics.
type killToken struct{}

// Proc is a simulation thread, the analogue of a SystemC SC_THREAD. The
// process function receives its own *Proc and uses the Wait family of methods
// to advance simulated time. A Proc's body runs as a runtime coroutine
// (iter.Pull): only the Run caller resumes one, so exactly one body runs at a
// time by construction.
type Proc struct {
	k    *Kernel
	name string
	id   int
	fn   func(*Proc)

	// next resumes the body's coroutine and stop unwinds it; both are nil
	// until the first activation. yield hands control back to the Run caller
	// and returns false when stop asks the body to unwind.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	state ProcState
	// daemon marks infrastructure processes (RTOS scheduler threads,
	// interrupt controllers) that legitimately wait forever; they are
	// excluded from deadlock accounting.
	daemon bool

	// Wake bookkeeping while waiting.
	waitEvents []*Event    // events subscribed for the current wait
	timeout    *timedEntry // pending timeout entry, nil if none
	wokenBy    *Event      // event that ended the last wait, nil on timeout
	timedOut   bool
	waitGen    uint64 // incremented on every park; guards stale delta timeouts

	// doneEvent fires when the process terminates; created on demand.
	doneEvent *Event
}

// Spawn creates a simulation thread named name running fn. Processes spawned
// before Run starts are runnable at time zero; processes spawned during the
// simulation become runnable in the current evaluate phase.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	if fn == nil {
		panic("sim: Spawn with nil function")
	}
	p := &Proc{
		k:     k,
		name:  name,
		id:    len(k.procs),
		fn:    fn,
		state: ProcNew,
	}
	k.procs = append(k.procs, p)
	k.makeRunnable(p)
	return p
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// State returns the process lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// SetDaemon marks the process as infrastructure: a daemon blocked forever is
// not a deadlock (it is expected to idle when the model has no work for it).
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// WaitingOn returns the names of the events the process is currently
// subscribed to; empty when the process is not waiting on events (pure
// timeout, delta wait, or not waiting at all).
func (p *Proc) WaitingOn() []string {
	if p.state != ProcWaiting || len(p.waitEvents) == 0 {
		return nil
	}
	names := make([]string, len(p.waitEvents))
	for i, e := range p.waitEvents {
		names[i] = e.name
	}
	return names
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Done returns an event notified when the process terminates.
func (p *Proc) Done() *Event {
	if p.doneEvent == nil {
		p.doneEvent = p.k.NewEvent(p.name + ".done")
	}
	return p.doneEvent
}

// resume runs p's body until it parks somewhere other than in its own
// scheduling pass, or ends. Only the Run caller resumes processes; the
// coroutine is created on the first activation.
func (p *Proc) resume() {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.body)
	}
	p.next()
}

// body is the coroutine function: it runs fn and, when fn returns, runs the
// next scheduling pass from the dying coroutine. A model panic is captured
// for the Run caller, which re-raises it as a *SimError; a kill (stop at
// Shutdown) unwinds through the same handler.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		r := recover()
		if _, killed := r.(killToken); killed {
			r = nil
		}
		p.state = ProcTerminated
		p.clearWaitState()
		k := p.k
		if p.doneEvent != nil && !k.shuttingDown {
			p.doneEvent.Notify()
		}
		k.current = nil
		switch {
		case k.shuttingDown:
			// Shutdown drives the unwind and discards panics from dying bodies.
		case r != nil:
			k.panicProc, k.panicVal = p, r
		default:
			k.schedule()
		}
	}()
	p.fn(p)
}

// park suspends the calling process until the kernel resumes it. It must only
// be called from the process's own body with wake conditions already
// registered. The parking process runs the next scheduling pass itself: when
// the pass re-dispatches this same process it simply keeps running, with no
// switch at all; otherwise it yields to the Run caller, which resumes the
// process the pass picked (k.current), or returns when the pass finished the
// run (limit, quiescence, stop, or a captured kernel-phase panic).
func (p *Proc) park() {
	p.waitGen++
	p.state = ProcWaiting
	k := p.k
	k.current = nil
	if k.schedule(); k.current == p {
		return
	}
	if !p.yield(struct{}{}) {
		panic(killToken{})
	}
}

// checkContext panics unless the caller is the currently executing process.
func (p *Proc) checkContext(op string) {
	if p.k.current != p {
		panic(fmt.Sprintf("sim: %s called on process %q from outside its own goroutine", op, p.name))
	}
}

// clearWaitState unsubscribes from all wait sources.
func (p *Proc) clearWaitState() {
	for _, e := range p.waitEvents {
		e.removeWaiter(p)
	}
	p.waitEvents = p.waitEvents[:0]
	if p.timeout != nil {
		p.k.cancelTimed(p.timeout)
		p.timeout = nil
	}
}

// wakeFromEvent is called by an event firing while p waits on it.
func (p *Proc) wakeFromEvent(e *Event) {
	// The firing event already removed p from its own waiter list; remove p
	// from the other events of a WaitAny and cancel the timeout.
	for _, other := range p.waitEvents {
		if other != e {
			other.removeWaiter(p)
		}
	}
	p.waitEvents = p.waitEvents[:0]
	if p.timeout != nil {
		p.k.cancelTimed(p.timeout)
		p.timeout = nil
	}
	p.wokenBy = e
	p.timedOut = false
	p.k.makeRunnable(p)
}

// wakeFromTimeout is called by the kernel when the timeout entry fires.
func (p *Proc) wakeFromTimeout() {
	for _, e := range p.waitEvents {
		e.removeWaiter(p)
	}
	p.waitEvents = p.waitEvents[:0]
	p.timeout = nil
	p.wokenBy = nil
	p.timedOut = true
	p.k.makeRunnable(p)
}

// Wait suspends the process for duration d of simulated time. Wait(0) yields
// for one delta cycle.
func (p *Proc) Wait(d Time) {
	p.checkContext("Wait")
	if d < 0 {
		panic("sim: Wait with negative duration")
	}
	if d == 0 {
		p.WaitDelta()
		return
	}
	p.timeout = p.k.scheduleTimed(AddSat(p.k.now, d), nil, p)
	p.park()
}

// WaitDelta suspends the process for exactly one delta cycle: it resumes at
// the same simulated time, in the next evaluate phase.
func (p *Proc) WaitDelta() {
	p.checkContext("WaitDelta")
	p.k.deltaProcs = append(p.k.deltaProcs, p)
	p.park()
}

// WaitEvent suspends the process until event e fires.
func (p *Proc) WaitEvent(e *Event) {
	p.checkContext("WaitEvent")
	e.addWaiter(p)
	p.waitEvents = append(p.waitEvents, e)
	p.park()
}

// WaitAny suspends the process until any of the given events fires and
// returns the event that woke it.
func (p *Proc) WaitAny(events ...*Event) *Event {
	p.checkContext("WaitAny")
	if len(events) == 0 {
		panic("sim: WaitAny with no events")
	}
	for _, e := range events {
		e.addWaiter(p)
		p.waitEvents = append(p.waitEvents, e)
	}
	p.park()
	return p.wokenBy
}

// WaitTimeout suspends the process until one of the events fires or duration
// d elapses, whichever comes first. It returns the waking event and false,
// or nil and true on timeout. This primitive is the foundation of the RTOS
// model's time-accurate preemptible execution.
func (p *Proc) WaitTimeout(d Time, events ...*Event) (woke *Event, timedOut bool) {
	p.checkContext("WaitTimeout")
	if d < 0 {
		panic("sim: WaitTimeout with negative duration")
	}
	if len(events) == 0 {
		p.Wait(d)
		return nil, true
	}
	if d == 0 {
		// A zero timeout still waits a delta so a simultaneous immediate
		// notification can win; schedule the timeout as a delta wake. The
		// generation guard discards the wake if an event got there first.
		p.k.deltaTimeouts = append(p.k.deltaTimeouts, deltaTimeout{p, p.waitGen + 1})
	} else {
		p.timeout = p.k.scheduleTimed(AddSat(p.k.now, d), nil, p)
	}
	for _, e := range events {
		e.addWaiter(p)
		p.waitEvents = append(p.waitEvents, e)
	}
	p.park()
	return p.wokenBy, p.timedOut
}
