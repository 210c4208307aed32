package sim

import "repro/internal/metrics"

// deltaTimeout records a process to wake at the next delta cycle unless it
// has already been woken (generation mismatch) in the meantime.
type deltaTimeout struct {
	p   *Proc
	gen uint64
}

// updater is implemented by primitive channels (signals) whose new value is
// applied in the update phase, after the evaluate phase of a delta cycle.
type updater interface{ update() }

// Kernel is the discrete-event simulation scheduler. Create one with New,
// spawn processes with Spawn, create events with NewEvent, then call Run
// (to exhaustion) or RunUntil/RunFor (bounded).
//
// A Kernel is not safe for concurrent use: all model code runs inside
// simulation processes which the kernel serializes, and the Run family must
// be called from a single goroutine. Independent kernels are fully isolated,
// so many simulations can run concurrently on separate goroutines (package
// batch exploits this for parameter sweeps).
type Kernel struct {
	now   Time
	limit Time // horizon of the run in progress

	procs   []*Proc
	strands []*Strand

	runQueue    ring[runnable] // processes and strands runnable in the current evaluate phase
	methodQueue ring[*Method]  // plain methods triggered in the current evaluate phase

	deltaQueue    []*Event // events with a pending delta notification
	deltaProcs    []*Proc  // processes doing WaitDelta
	deltaTimeouts []deltaTimeout

	// Spare buffers double-buffering the delta and update queues: each delta
	// cycle swaps the filled queue for the (drained) spare instead of
	// allocating a fresh slice, so steady-state delta cycles do not allocate.
	deltaQueueSpare    []*Event
	deltaProcsSpare    []*Proc
	deltaTimeoutsSpare []deltaTimeout
	updateSpare        []updater

	updateQueue []updater

	// wheel is the timed-notification queue: a hierarchical timing wheel
	// with O(1) schedule/cancel that keeps far-future entries in an
	// overflow heap (wheel.go).
	wheel *timedWheel
	seq   uint64

	// permuter, when set, re-orders same-instant timed batches (permute.go).
	// The perm* slices are its reusable scratch buffers, so the drained-batch
	// path stays allocation-free in steady state.
	permuter    TimedPermuter
	permBatch   []*timedEntry
	permActions []TimedAction
	permOrder   []int
	permSeen    []bool

	current *Proc

	// mainPk parks the Run caller while a process goroutine has control; the
	// goroutine that finishes a scheduling pass (or panics, or unwinds at
	// shutdown) signals it. panicVal carries a panic back to the Run caller
	// for re-raising there: a model panic when panicProc is set or a strand
	// was stepping (wrapped in *SimError), otherwise a panic from
	// kernel-phase code (a method body, an update callback), re-raised as-is.
	mainPk    *parker
	panicProc *Proc
	panicVal  any
	// stepping is the strand whose step is running; a panic leaves it set.
	stepping *Strand

	running       bool
	stopRequested bool
	shuttingDown  bool

	finish     FinishReason
	diagnostic func() []string

	deltaCount    uint64
	activations   uint64
	methodRuns    uint64
	strandResumes uint64

	// Observability counters (metrics.go). All nil until SetMetrics wires a
	// registry; the instruments are nil-safe so the hot paths record
	// unconditionally without allocating.
	mDeltaCycles   *metrics.Counter
	mActivations   *metrics.Counter
	mMethodRuns    *metrics.Counter
	mTimedPops     *metrics.Counter
	mTimedSched    *metrics.Counter
	mStrandResumes *metrics.Counter
}

// runnable is a process to dispatch or a strand's method to run inline.
type runnable struct {
	p *Proc
	m *Method
}

// New creates an empty simulation kernel at time zero.
func New() *Kernel {
	return &Kernel{wheel: newTimedWheel(), mainPk: newParker()}
}

// timedPeek returns the earliest live timed entry, or nil. It answers from
// the wheel's cached minimum without a call when it can.
func (k *Kernel) timedPeek() *timedEntry {
	w := k.wheel
	if w.min != nil {
		return w.min
	}
	if w.count == 0 && len(w.overflow.entries) == 0 {
		return nil
	}
	return w.peek()
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// NextActivity returns the timestamp of the earliest pending timed action
// and true, or false when the timed queue is empty. Between bounded runs it
// is the kernel's next possible instant of local progress; the sharded
// multi-kernel engine uses it to tighten the conservative lookahead bound it
// advertises to neighbouring shards.
func (k *Kernel) NextActivity() (Time, bool) {
	if e := k.timedPeek(); e != nil {
		return e.at, true
	}
	return 0, false
}

// DeltaCount returns the number of delta cycles executed so far.
func (k *Kernel) DeltaCount() uint64 { return k.deltaCount }

// Activations returns the number of process activations (control transfers
// from the kernel into a simulation thread) so far. This is the "number of
// thread switches" metric used by the paper to compare the two RTOS model
// implementations in section 4.
func (k *Kernel) Activations() uint64 { return k.activations }

// MethodRuns returns the number of method executions so far. A method run is
// the zero-switch counterpart of an activation: work that would cost a full
// process activation in a threaded formulation runs inline in the evaluate
// loop instead. Comparing MethodRuns against Activations quantifies how much
// infrastructure work the method-ized formulation keeps off the goroutine
// handoff path.
func (k *Kernel) MethodRuns() uint64 { return k.methodRuns }

// StrandResumes returns the number of strand resumes so far: continuation
// state-machine advances run inline as method executions. Each one stands in
// for what would be a full process activation in the goroutine formulation,
// so comparing StrandResumes against Activations quantifies the handoffs the
// continuation engine keeps off the parker path.
func (k *Kernel) StrandResumes() uint64 { return k.strandResumes }

// Processes returns the processes spawned on this kernel, in spawn order.
func (k *Kernel) Processes() []*Proc { return k.procs }

// Stop requests the simulation to stop at the end of the current evaluate
// step. It may be called from inside a simulation process.
func (k *Kernel) Stop() { k.stopRequested = true }

// Stopped reports whether Stop has been requested.
func (k *Kernel) Stopped() bool { return k.stopRequested }

// Run executes the simulation until no further activity is possible (or Stop
// is called) and then shuts the kernel down, unwinding every still-parked
// process goroutine. After Run returns the kernel cannot be restarted.
func (k *Kernel) Run() {
	k.run(TimeMax)
	k.Shutdown()
}

// RunUntil executes the simulation until simulated time t. Pending activity
// after t stays scheduled, and process goroutines stay parked, so the
// simulation can be continued with further RunUntil/RunFor calls. Call
// Shutdown when done to release the goroutines.
func (k *Kernel) RunUntil(t Time) {
	if t < k.now {
		panic("sim: RunUntil into the past")
	}
	k.run(t)
}

// RunFor executes the simulation for duration d of simulated time. The end
// instant saturates at TimeMax for very large durations.
func (k *Kernel) RunFor(d Time) {
	if d < 0 {
		panic("sim: RunFor with negative duration")
	}
	k.RunUntil(AddSat(k.now, d))
}

// Shutdown unwinds every non-terminated process goroutine. It is idempotent.
// Events notified by terminating processes are not propagated.
func (k *Kernel) Shutdown() {
	k.shuttingDown = true
	for _, p := range k.procs {
		if p.started && p.state != ProcTerminated {
			// Kill-signal the parked goroutine; its unwind handler signals
			// mainPk back once it has terminated, serializing the teardown.
			p.pk.signal(true)
			k.mainPk.wait()
		}
	}
}

// run drives the simulation from the Run caller's goroutine. The actual
// scheduling happens in schedule, which executes on whichever goroutine
// currently has control: when schedule hands control to a process, the Run
// caller parks here until some goroutine finishes a scheduling pass (hits
// the limit, quiescence, a stop, or a panic) and signals it back awake.
func (k *Kernel) run(limit Time) {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	if k.shuttingDown {
		panic("sim: Run after Shutdown")
	}
	k.running = true
	defer func() { k.running = false }()
	k.stopRequested = false
	k.limit = limit

	if k.schedule() {
		k.mainPk.wait()
	}
	if r := k.panicVal; r != nil {
		p, st := k.panicProc, k.stepping
		k.panicProc, k.panicVal, k.stepping = nil, nil, nil
		switch {
		case p != nil:
			panic(&SimError{At: k.now, Proc: p.name, PanicValue: r})
		case st != nil:
			// A panicked strand is dead, not blocked.
			st.finished = true
			panic(&SimError{At: k.now, Proc: st.name, PanicValue: r})
		}
		panic(r) // kernel-phase panic, re-raised as-is
	}
}

// schedule advances the simulation through the evaluate/update/delta/timed
// phases until it either transfers control to a process goroutine (returns
// true; the caller must then park or unwind) or the run reaches a stopping
// point (returns false with k.finish set; the caller hands control back to
// the Run caller). It runs on the Run caller's goroutine initially and on
// the goroutine of whichever process parks or terminates thereafter — that
// direct handoff is what makes a scheduling action cost one goroutine
// switch instead of a round trip through a kernel goroutine.
//
// A panic out of kernel-phase code (method bodies, update callbacks, event
// deliveries) is captured into k.panicVal (with no panicProc) and reported
// as "no dispatch" so the calling goroutine routes control back to the Run
// caller, which re-raises it — the same observable behaviour as when these
// phases ran on the Run caller's goroutine directly.
func (k *Kernel) schedule() (dispatched bool) {
	defer func() {
		if r := recover(); r != nil {
			k.panicProc, k.panicVal = nil, r
			k.finish = FinishPanic
			dispatched = false
		}
	}()
	for {
		// Evaluate phase: run triggered methods and runnable processes until
		// none are left. Methods are drained before each process dispatch so
		// combinational reactions settle promptly; order is deterministic.
		// Strands queue with the processes, so a continuation body resumes
		// exactly where its goroutine form would have been dispatched.
		for !k.stopRequested {
			if k.methodQueue.len() > 0 {
				m := k.methodQueue.pop()
				k.methodRuns++
				k.mMethodRuns.Inc()
				m.run()
				continue
			}
			if k.runQueue.len() > 0 {
				next := k.runQueue.pop()
				if next.m != nil {
					k.methodRuns++
					k.mMethodRuns.Inc()
					next.m.run()
					continue
				}
				p := next.p
				if p.state != ProcRunnable {
					continue // terminated or rescheduled since queuing
				}
				// Dispatch: transfer control to p. The caller returns (and
				// parks or unwinds) right after; from that point p's
				// goroutine is the only one running simulation code.
				k.current = p
				k.activations++
				k.mActivations.Inc()
				p.state = ProcRunning
				if !p.started {
					p.start()
				}
				p.pk.signal(false)
				return true
			}
			break
		}
		if k.stopRequested {
			k.finish = FinishStopped
			return false
		}

		// Update phase: apply primitive-channel writes.
		if len(k.updateQueue) > 0 {
			ups := k.updateQueue
			k.updateQueue = k.updateSpare[:0]
			k.updateSpare = ups
			for i, u := range ups {
				u.update()
				ups[i] = nil
			}
		}

		// Delta notification phase.
		if len(k.deltaQueue) > 0 || len(k.deltaProcs) > 0 || len(k.deltaTimeouts) > 0 {
			k.deltaCount++
			k.mDeltaCycles.Inc()
			dq, dp, dt := k.deltaQueue, k.deltaProcs, k.deltaTimeouts
			k.deltaQueue = k.deltaQueueSpare[:0]
			k.deltaProcs = k.deltaProcsSpare[:0]
			k.deltaTimeouts = k.deltaTimeoutsSpare[:0]
			k.deltaQueueSpare, k.deltaProcsSpare, k.deltaTimeoutsSpare = dq, dp, dt
			for i, e := range dq {
				if e.pendingDelta {
					e.pendingDelta = false
					e.fire()
				}
				dq[i] = nil
			}
			for i, p := range dp {
				if p.state == ProcWaiting {
					k.makeRunnable(p)
				}
				dp[i] = nil
			}
			for i, d := range dt {
				if d.p.state == ProcWaiting && d.p.waitGen == d.gen {
					d.p.wakeFromTimeout()
				}
				dt[i] = deltaTimeout{}
			}
			continue
		}

		// Timed notification phase: advance to the earliest pending action.
		head := k.timedPeek()
		if head == nil {
			// Event starvation: nothing can ever happen again. Clean
			// quiescence if no non-daemon process is left waiting, a
			// deadlock otherwise.
			if len(k.BlockedProcs()) > 0 {
				k.finish = FinishDeadlock
			} else {
				k.finish = FinishQuiescent
			}
			return false
		}
		if head.at > k.limit {
			k.now = k.limit
			k.finish = FinishLimit
			return false
		}
		k.now = head.at
		if k.permuter != nil {
			k.fireTimedBatch()
			continue
		}
		for h := head; ; {
			k.wheel.pop()
			k.mTimedPops.Inc()
			switch {
			case h.event != nil:
				ev := h.event
				ev.pendingTimed = nil
				k.wheel.release(h)
				ev.fire()
			case h.proc != nil:
				pr := h.proc
				k.wheel.release(h)
				pr.wakeFromTimeout()
			}
			if h = k.timedPeek(); h == nil || h.at != k.now {
				break
			}
		}
	}
}

// makeRunnable queues p for the current evaluate phase.
func (k *Kernel) makeRunnable(p *Proc) {
	if p.state == ProcTerminated || p.state == ProcRunnable {
		return
	}
	if p.state == ProcRunning {
		// A running process cannot be made runnable; it already runs.
		return
	}
	p.state = ProcRunnable
	k.runQueue.push(runnable{p: p})
}

// scheduleTimed inserts a future action into the timed queue. The entry comes
// from the queue's free list, so the steady-state schedule/fire/cancel cycle
// performs no allocations.
func (k *Kernel) scheduleTimed(at Time, e *Event, p *Proc) *timedEntry {
	k.seq++
	k.mTimedSched.Inc()
	entry := k.wheel.alloc(at, k.seq, e, p)
	k.wheel.push(entry)
	return entry
}

// cancelTimed cancels a scheduled entry (and forgets it for compaction
// accounting). Callers must drop their pointer to it.
func (k *Kernel) cancelTimed(entry *timedEntry) { k.wheel.kill(entry) }

// requestUpdate queues an updater for the update phase of the current delta
// cycle. Deduplication is the caller's responsibility.
func (k *Kernel) requestUpdate(u updater) {
	k.updateQueue = append(k.updateQueue, u)
}

// Current returns the currently executing process, or nil when the kernel
// itself (or user code outside Run) has control.
func (k *Kernel) Current() *Proc { return k.current }
