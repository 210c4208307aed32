package sim

// Event is the fundamental synchronization primitive of the kernel,
// equivalent to SystemC's sc_event. An event does not carry a value and does
// not remember notifications: only processes waiting at the instant the event
// fires are woken (higher-level memorizing events are built in package comm).
//
// An event can be notified three ways, with SystemC's override rules:
//
//   - Notify (immediate): the event fires in the current evaluate phase;
//     any pending delayed notification is cancelled.
//   - NotifyDelta: the event fires in the next delta cycle at the current
//     simulation time. A pending timed notification is cancelled in favour of
//     the delta one (delta is earlier).
//   - NotifyAt / NotifyIn (timed): the event fires at an absolute/relative
//     simulated time. If a notification is already pending at an earlier
//     time, the new one is discarded; otherwise it replaces the pending one.
type Event struct {
	k    *Kernel
	name string

	// Processes dynamically waiting on this event.
	waiters []*Proc
	// waitersSpare double-buffers the waiter list: fire swaps it in instead
	// of dropping the backing array, so notify/wait cycles do not allocate.
	waitersSpare []*Proc
	// Methods statically sensitive to this event.
	methods []*Method

	// Pending notification state.
	pendingDelta bool
	pendingTimed *timedEntry // nil if none
}

// NewEvent creates a named event bound to kernel k.
func (k *Kernel) NewEvent(name string) *Event {
	return &Event{k: k, name: name}
}

// Name returns the event's name.
func (e *Event) Name() string { return e.name }

// Notify fires the event immediately: all processes currently waiting on it
// become runnable in the current evaluate phase, and sensitive methods are
// queued to run. Any pending delayed notification is cancelled.
func (e *Event) Notify() {
	e.cancelPending()
	e.fire()
}

// NotifyDelta schedules the event to fire in the next delta cycle. It
// overrides a pending timed notification (which is necessarily later) and is
// a no-op if a delta notification is already pending.
func (e *Event) NotifyDelta() {
	if e.pendingDelta {
		return
	}
	if e.pendingTimed != nil {
		e.k.cancelTimed(e.pendingTimed)
		e.pendingTimed = nil
	}
	e.pendingDelta = true
	e.k.deltaQueue = append(e.k.deltaQueue, e)
}

// NotifyIn schedules the event to fire after duration d. NotifyIn(0) is
// equivalent to NotifyDelta. A pending earlier notification wins; a pending
// later one is replaced. The fire instant saturates at TimeMax for very
// large durations.
func (e *Event) NotifyIn(d Time) {
	if d < 0 {
		panic("sim: NotifyIn with negative duration")
	}
	if d == 0 {
		e.NotifyDelta()
		return
	}
	e.NotifyAt(AddSat(e.k.now, d))
}

// NotifyAt schedules the event to fire at absolute time t, which must not be
// in the past. A pending earlier notification wins; a pending later one is
// replaced.
func (e *Event) NotifyAt(t Time) {
	if t < e.k.now {
		panic("sim: NotifyAt in the past")
	}
	if e.pendingDelta {
		return // delta is earlier than any timed notification
	}
	if e.pendingTimed != nil {
		if e.pendingTimed.at <= t {
			return
		}
		e.k.cancelTimed(e.pendingTimed)
	}
	e.pendingTimed = e.k.scheduleTimed(t, e, nil)
}

// Cancel removes any pending delayed notification. Immediate notifications
// cannot be cancelled (they have already happened).
func (e *Event) Cancel() { e.cancelPending() }

// HasPending reports whether a delta or timed notification is pending.
func (e *Event) HasPending() bool { return e.pendingDelta || e.pendingTimed != nil }

func (e *Event) cancelPending() {
	if e.pendingTimed != nil {
		e.k.cancelTimed(e.pendingTimed)
		e.pendingTimed = nil
	}
	if e.pendingDelta {
		e.pendingDelta = false
		// Leave the stale entry in the kernel's delta queue; fireDelta skips
		// events whose pendingDelta flag was cleared.
	}
}

// fire wakes all waiting processes and queues sensitive methods. Waiters
// become runnable in the current evaluate phase (immediate semantics); the
// kernel's delta/timed machinery calls fire at the right phase boundary.
func (e *Event) fire() {
	if len(e.waiters) > 0 {
		// Swap in the spare list (processes woken during the loop may
		// re-subscribe); ws is iterated below and recycled for the next fire.
		ws := e.waiters
		e.waiters = e.waitersSpare[:0]
		e.waitersSpare = ws
		for i, p := range ws {
			p.wakeFromEvent(e)
			ws[i] = nil
		}
	}
	for _, m := range e.methods {
		m.trigger(e)
	}
}

// addWaiter subscribes p; called by the wait primitives.
func (e *Event) addWaiter(p *Proc) { e.waiters = append(e.waiters, p) }

// removeWaiter unsubscribes p (used when a process waiting on several events
// or on a timeout is woken by another source).
func (e *Event) removeWaiter(p *Proc) {
	for i, w := range e.waiters {
		if w == p {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}
