package sim

// Strand is a continuation driver: a Method bundled with a private timer
// event, the kernel-side harness for running task bodies expressed as
// resumable state machines instead of coroutines. Where a Proc parks its
// coroutine in Wait and pays a coroutine switch per activation, a Strand's
// step function runs inline in the evaluate phase and simply returns after
// advancing its state machine — control never leaves the scheduling pass
// and no stack is retained between resumes. A triggered strand queues with
// the runnable processes, so it resumes where a process woken by the same
// event would run.
//
// The step function learns why it ran from Trigger() (the sensitivity event
// that fired; TimedOut reports whether it was the private timer) and models
// a timed sleep by arming the timer with WakeIn/WakeAt/WakeDelta and
// returning. Strands follow Method rules: step must run to completion and
// must not call the blocking Wait primitives.
//
// Until Finish, a strand not queued to run counts as blocked like a waiting
// Proc, waiting on its first sensitivity event: a run that starves with an
// unfinished strand is a deadlock.
type Strand struct {
	k     *Kernel
	name  string
	m     *Method
	timer *Event
	fn    func(*Strand)
	// waitingOn names the first sensitivity event, for BlockedProcs.
	waitingOn []string
	// procsBefore (len(k.procs) at creation) orders strands among processes.
	procsBefore int
	finished    bool
}

// NewStrand creates a continuation driver executing fn, sensitive to the
// given events plus its own private timer. With initial true the strand runs
// once at the start of the simulation, like a default-initialized method.
func (k *Kernel) NewStrand(name string, fn func(*Strand), initial bool, sensitivity ...*Event) *Strand {
	if fn == nil {
		panic("sim: NewStrand with nil function")
	}
	s := &Strand{k: k, name: name, fn: fn, procsBefore: len(k.procs)}
	s.timer = k.NewEvent(name + ".strandTimer")
	sens := make([]*Event, 0, len(sensitivity)+1)
	sens = append(sens, sensitivity...)
	sens = append(sens, s.timer)
	s.waitingOn = []string{sens[0].name}
	s.m = k.NewMethod(name, s.step, false, sens...)
	s.m.strand = true
	if initial {
		s.m.Trigger()
	}
	k.strands = append(k.strands, s)
	return s
}

// Finish marks the strand terminated, or as infrastructure that may idle
// forever (like a daemon process): it no longer counts as blocked.
func (s *Strand) Finish() { s.finished = true }

// step counts the resume and advances the state machine, marking the
// strand as stepping so a panic out of fn names it.
func (s *Strand) step() {
	s.k.strandResumes++
	s.k.mStrandResumes.Inc()
	s.k.stepping = s
	s.fn(s)
	s.k.stepping = nil
}

// Name returns the strand's name.
func (s *Strand) Name() string { return s.name }

// Kernel returns the kernel the strand runs on.
func (s *Strand) Kernel() *Kernel { return s.k }

// Trigger returns the sensitivity event whose firing caused the current/last
// resume, nil for the initial run or a manual Run.
func (s *Strand) Trigger() *Event { return s.m.LastTrigger() }

// TimedOut reports whether the current resume was caused by the private
// timer (a WakeIn/WakeAt/WakeDelta expiring) rather than a sensitivity event.
func (s *Strand) TimedOut() bool { return s.m.LastTrigger() == s.timer }

// Run queues the strand to resume in the current evaluate phase regardless
// of its sensitivity list.
func (s *Strand) Run() { s.m.Trigger() }

// WakeIn arms the private timer to resume the strand after duration d.
// WakeIn(0) is equivalent to WakeDelta. The usual event override rules
// apply: an earlier pending wake wins.
func (s *Strand) WakeIn(d Time) { s.timer.NotifyIn(d) }

// WakeAt arms the private timer to resume the strand at absolute time t.
func (s *Strand) WakeAt(t Time) { s.timer.NotifyAt(t) }

// WakeDelta arms the private timer to resume the strand in the next delta
// cycle.
func (s *Strand) WakeDelta() { s.timer.NotifyDelta() }

// CancelWake cancels a pending timer wake, if any.
func (s *Strand) CancelWake() { s.timer.Cancel() }

// WakePending reports whether a timer wake is pending.
func (s *Strand) WakePending() bool { return s.timer.HasPending() }
