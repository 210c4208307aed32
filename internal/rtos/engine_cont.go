package rtos

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the continuation task engine: tasks whose bodies are
// Continuations (yield.go) run without a goroutine, a coroutine switch or a
// retained stack. Each task owns a contDriver, a state machine executed by a
// sim.Strand — a kernel Method with a private timer — so every resume runs
// inline in the evaluate phase on the kernel's own goroutine.
//
// The task lifecycle above the scheduler — construction, the periodic
// release schedule, job completion and abort bookkeeping, the hang entry —
// is shared with the goroutine engine (lifecycle.go); only the waiting
// differs. The driver runs, state for state and delta for delta, the
// protocol the goroutine engine runs in Task.awaitDispatch, Execute, Delay
// and the switch-out halves of engine_proc.go: the same settle deltas, the
// same overhead charges at the same instants with the same formula inputs,
// the same trace records in the same order. A model run on continuation
// tasks produces byte-identical traces to the same model on goroutine tasks
// (pinned by the differential golden tests); only the sim_* kernel effort
// counters differ, since strand resumes replace thread activations.
//
// What a blocking call was in the goroutine engine becomes a pair of driver
// states here: "arm a wake and return" then "on wake, pick up where the
// protocol left off". The strand's sensitivity covers every event that can
// concern the task (TaskRun, TaskPreempt, interrupt completion), so each
// state must tolerate spurious resumes; timer-armed states filter them with
// WakePending (the private timer still pending means the resume came from a
// sensitivity event, not the timer).

// contState enumerates the driver's wait states: where the state machine
// parks between strand resumes.
type contState uint8

const (
	// dcInit: before elaboration ran the strand's initial resume.
	dcInit contState = iota
	// dcStartWait: waiting for the configured StartAt release instant.
	dcStartWait
	// dcParked: not running and not mid-protocol; waiting for a grant.
	dcParked
	// dcInSettleA: grantSchedLoad taken; waiting the pre-charge settle delta.
	dcInSettleA
	// dcInSched: waiting out the scheduling-overhead charge.
	dcInSched
	// dcInSettleB: waiting the pre-election settle delta.
	dcInSettleB
	// dcInLoad: elected; waiting out the context-load charge.
	dcInLoad
	// dcExecSlice: running a Compute slice; the timer is armed at the
	// remaining duration, preemption and interrupts wake it early.
	dcExecSlice
	// dcIsrWait: an ISR borrowed the processor; waiting for its completion.
	dcIsrWait
	// dcOutSave: waiting out the context-save charge of a switch-out.
	dcOutSave
	// dcOutSettle: waiting the post-save settle delta.
	dcOutSettle
	// dcOutSched: waiting out the scheduling charge of a switch-out.
	dcOutSched
	// dcOutSettleB: waiting the pre-election settle delta of a switch-out.
	dcOutSettleB
	// dcDone: the task terminated.
	dcDone
)

// afterKind tells afterDispatch why the task had left the processor, i.e.
// which point of the task lifecycle resumes now that it runs again.
type afterKind uint8

const (
	// afStart: first dispatch ever — enter the behaviour.
	afStart afterKind = iota
	// afExec: back from a preemption inside a Compute slice.
	afExec
	// afHang: back from an injected hang inside a Compute slice.
	afHang
	// afYield: back from a voluntary YieldCPU.
	afYield
	// afBodySleep: back from a WaitFor inside the job body.
	afBodySleep
	// afJitterSleep: back from the periodic wrapper's release-jitter sleep.
	afJitterSleep
	// afReleaseSleep: back from the periodic wrapper's end-of-cycle sleep.
	afReleaseSleep
	// afAcquire: back from a blocking re-attempt op (mutex, queue).
	afAcquire
	// afAwait: back from a grant-on-resume op (comm event).
	afAwait
)

// contNext is the trampoline vocabulary: what advance should run next. Using
// returned tags instead of direct calls keeps back-to-back same-instant
// cycles (an overrunning periodic task) from recursing without bound.
type contNext uint8

const (
	// nextParked: the driver armed a wake and parked; return to the kernel.
	nextParked contNext = iota
	// nextProgram: resume the continuation body for its next yield op.
	nextProgram
	// nextJobEnd: the body finished; run job completion.
	nextJobEnd
	// nextCycle: start the next periodic cycle (deadline, jitter).
	nextCycle
	// nextBody: enter the cycle body (after the jitter sleep, if any).
	nextBody
)

// contDriver executes one continuation task.
type contDriver struct {
	t    *Task
	cpu  *Processor
	s    *sim.Strand
	cont Continuation
	// prog is cont when it is a Program, resumed without the interface call.
	prog *Program

	state contState
	after afterKind
	// pendingOp holds the blocking yield op the task is parked on.
	pendingOp Yield

	// inCore/outCore are the cores of the dispatch-in and switch-out
	// microprograms in flight; chargeStart is the start instant of the
	// overhead charge being waited out.
	inCore      *core
	outCore     *core
	outFinal    contState
	chargeStart sim.Time

	// remaining/sliceStart track the Compute slice in flight.
	remaining  sim.Time
	sliceStart sim.Time
}

// NewContTask creates a task running a continuation body on the processor.
// The body runs once (Finish terminates the task); use NewPeriodicContTask
// for cyclic tasks. Continuation tasks coexist freely with goroutine tasks
// on the same processor and follow the identical scheduling protocol.
func (cpu *Processor) NewContTask(name string, cfg TaskConfig, body Continuation) *Task {
	if body == nil {
		panic("rtos: NewContTask with nil continuation")
	}
	return cpu.newContTask(name, cfg, body)
}

// NewPeriodicContTask creates a periodic task running a continuation body
// each cycle, with the release, deadline-watch, jitter and recovery
// semantics of NewPeriodicTask.
func (cpu *Processor) NewPeriodicContTask(name string, cfg TaskConfig, body Continuation) *Task {
	if body == nil {
		panic("rtos: NewPeriodicContTask with nil continuation")
	}
	return cpu.newPeriodic(name, cfg, func() *Task { return cpu.newContTask(name, cfg, body) })
}

func (cpu *Processor) newContTask(name string, cfg TaskConfig, body Continuation) *Task {
	t := cpu.newTask(name, cfg)
	// The strand must be sensitive to ISR completion, so the controller (an
	// inert bundle of events until an IRQ is declared) is forced into
	// existence here. Creating it records nothing and schedules nothing.
	ic := cpu.Interrupts()
	// The delay event is created eagerly (the goroutine engine does it
	// lazily on its own thread; a driver has no thread to do it on).
	t.delayEvent = cpu.k.NewEvent(name + ".delay")
	cpu.k.NewMethod(name+".delayWake", func() {
		cpu.eng.taskIsReady(t)
	}, false, t.delayEvent)
	d := &contDriver{t: t, cpu: cpu, cont: body, after: afStart}
	d.prog, _ = body.(*Program)
	t.cont = d
	d.s = cpu.k.NewStrand(name, d.step, true, t.evRun, t.evPreempt, ic.doneEv)
	return t
}

// step is the strand entry point: route the resume to the parked state's
// handler. Timer-armed states treat a still-pending timer as proof the
// resume came from a sensitivity event and ignore it (interrupt completion
// broadcasts to every continuation task's strand, for instance).
func (d *contDriver) step(s *sim.Strand) {
	d.cpu.met.contResumes.Inc()
	switch d.state {
	case dcInit:
		d.init()
	case dcStartWait:
		if !s.WakePending() {
			d.becomeReady()
		}
	case dcParked:
		d.tryGrant()
	case dcInSettleA:
		if !s.WakePending() {
			d.inSched()
		}
	case dcInSched:
		if !s.WakePending() {
			d.inSchedDone()
		}
	case dcInSettleB:
		if !s.WakePending() {
			d.inElect()
		}
	case dcInLoad:
		if !s.WakePending() {
			d.completeDispatch()
		}
	case dcExecSlice:
		d.sliceWake()
	case dcIsrWait:
		d.isrWake()
	case dcOutSave:
		if !s.WakePending() {
			d.outSaveDone()
		}
	case dcOutSettle:
		if !s.WakePending() {
			d.outDispatch()
		}
	case dcOutSched:
		if !s.WakePending() {
			d.outSchedDone()
		}
	case dcOutSettleB:
		if !s.WakePending() {
			d.outElect()
		}
	case dcDone:
		// Terminated; late wakes (a broadcast doneEv) are ignored.
	}
}

// init mirrors threadBody's prologue: record Created, wait out StartAt,
// become ready.
func (d *contDriver) init() {
	t := d.t
	t.setState(trace.StateCreated)
	if t.cfg.StartAt > 0 {
		d.state = dcStartWait
		d.s.WakeIn(t.cfg.StartAt)
		return
	}
	d.becomeReady()
}

func (d *contDriver) becomeReady() {
	d.state = dcParked
	d.cpu.eng.taskIsReady(d.t)
	d.maybeGrant()
}

// maybeGrant processes a grant already pending while the driver is parked.
// Needed because a grant arriving mid-microprogram has its TaskRun notify
// consumed by a state that ignores it; on reaching dcParked the grant must
// be picked up without waiting for another notify (the goroutine engine's
// awaitDispatch checks pendingGrant before parking for the same reason).
func (d *contDriver) maybeGrant() {
	if d.state == dcParked && d.t.pendingGrant != grantNone {
		d.tryGrant()
	}
}

// tryGrant consumes a pending grant: the head of awaitDispatch.
func (d *contDriver) tryGrant() {
	t := d.t
	if t.pendingGrant == grantNone {
		return // spurious wake
	}
	g := t.pendingGrant
	t.pendingGrant = grantNone
	d.inCore = &d.cpu.cores[t.grantCore]
	switch g {
	case grantSchedLoad:
		// Idle-core wakeup: this driver runs the scheduler for the core it
		// claimed, after a settle delta that lets same-instant arrivals join
		// the election.
		d.state = dcInSettleA
		d.s.WakeDelta()
	case grantLoad:
		// Elected by another thread; it already removed us from the queue.
		d.beginLoad()
	}
}

// inSched starts the scheduling-overhead charge of a grantSchedLoad dispatch.
func (d *contDriver) inSched() {
	cpu := d.cpu
	dur := cpu.overheadDur(trace.OverheadScheduling, cpu.overheadCtxOn(d.inCore, nil))
	d.chargeStart = cpu.k.Now()
	if dur > 0 {
		d.state = dcInSched
		d.s.WakeIn(dur)
		return
	}
	d.inSchedDone()
}

func (d *contDriver) inSchedDone() {
	cpu := d.cpu
	cpu.recordCharge(trace.OverheadScheduling, nil, d.inCore.id, d.chargeStart, cpu.k.Now())
	d.state = dcInSettleB
	d.s.WakeDelta()
}

// inElect runs the election of a grantSchedLoad dispatch, exactly as
// awaitDispatch does after its second settle.
func (d *contDriver) inElect() {
	cpu, t, c := d.cpu, d.t, d.inCore
	cpu.clearClaim(t)
	elected := cpu.electOn(c)
	if elected != t {
		if elected != nil {
			elected.grant(grantLoad, c.id)
		} else {
			c.switching = false
		}
		// Losing the election leaves this task unclaimed in the queue; claim
		// another idle core if one is eligible, otherwise park.
		d.state = dcParked
		if c2 := cpu.claimIdleCore(t); c2 != nil {
			t.grant(grantSchedLoad, c2.id)
		}
		d.maybeGrant()
		return
	}
	d.beginLoad()
}

// beginLoad starts the context-load charge; completion makes the task run.
func (d *contDriver) beginLoad() {
	cpu, t, c := d.cpu, d.t, d.inCore
	dur := cpu.overheadDur(trace.OverheadContextLoad, cpu.overheadCtxOn(c, t))
	d.chargeStart = cpu.k.Now()
	if dur > 0 {
		d.state = dcInLoad
		d.s.WakeIn(dur)
		return
	}
	d.completeDispatch()
}

func (d *contDriver) completeDispatch() {
	cpu, t, c := d.cpu, d.t, d.inCore
	cpu.recordCharge(trace.OverheadContextLoad, t, c.id, d.chargeStart, cpu.k.Now())
	cpu.finishDispatch(t, c)
	d.afterDispatch()
}

// afterDispatch resumes the task lifecycle at the point recorded when it
// left the processor.
func (d *contDriver) afterDispatch() {
	t := d.t
	switch d.after {
	case afStart:
		if t.sched != nil {
			d.advance(nextCycle)
		} else {
			d.advance(nextBody) // runBehaviour's entry
		}
	case afExec:
		d.advance(d.sliceStep())
	case afHang:
		t.hung = false
		d.advance(d.sliceStep())
	case afYield:
		d.advance(nextProgram)
	case afBodySleep, afJitterSleep:
		// Delay's post-dispatch abort checkpoint: an abort landing at the
		// release-jitter sleep aborts the cycle, as one inside the body does.
		if t.abortPending {
			d.advance(d.jobAbort())
			return
		}
		if d.after == afBodySleep {
			d.advance(nextProgram)
		} else {
			d.advance(nextBody)
		}
	case afReleaseSleep:
		d.advance(nextCycle)
	case afAcquire:
		// Re-attempt op (mutex, queue): another waiter may have won the
		// race while we were dispatched; block again if so.
		if d.pendingOp.attempt(t.ctx) {
			d.advance(nextProgram)
			return
		}
		d.blockOnOp()
	case afAwait:
		// Grant-on-resume op (comm event): the occurrence was granted by
		// the resume itself; record the wakeup and continue.
		d.pendingOp.wake(t.ctx)
		d.advance(nextProgram)
	}
}

// advance is the driver's trampoline: dispatch trampoline tags until the
// machine parks. Tags instead of calls keep an overrunning periodic task —
// whose cycles chain back-to-back at the same instant without leaving the
// processor — from recursing cycleStart -> runOps -> jobEnd -> cycleStart.
func (d *contDriver) advance(n contNext) {
	for {
		switch n {
		case nextParked:
			return
		case nextProgram:
			n = d.runOps()
		case nextJobEnd:
			n = d.jobEnd()
		case nextCycle:
			n = d.cycleStart()
		case nextBody:
			n = d.startBody()
		}
	}
}

// runOps resumes the continuation body and executes yield ops until one
// parks the driver or the job finishes. Inline ops (and zero-duration
// computes) loop here without leaving kernel context.
func (d *contDriver) runOps() contNext {
	t := d.t
	for {
		var y Yield
		if d.prog != nil {
			y = d.prog.next(t.ctx)
		} else {
			y = d.cont.Resume(t.ctx)
		}
		switch y.kind {
		case yieldFinish:
			return nextJobEnd
		case yieldCompute, yieldComputeFn:
			dur := y.d
			if y.kind == yieldComputeFn {
				dur = y.dur(t.ctx)
			}
			d.remaining = t.execBudget(dur)
			if n := d.sliceStep(); n != nextProgram {
				return n
			}
		case yieldSleep:
			if y.d < 0 {
				panic("rtos: Delay with negative duration")
			}
			if y.d == 0 {
				continue
			}
			d.sleep(y.d, afBodySleep)
			return nextParked
		case yieldYieldCPU:
			d.after = afYield
			d.switchOut(trace.StateReady, dcParked)
			return nextParked
		case yieldAcquire:
			if y.attempt(t.ctx) {
				continue
			}
			d.pendingOp = y
			d.after = afAcquire
			d.blockOnOp()
			return nextParked
		case yieldAwait:
			if y.attempt(t.ctx) {
				continue
			}
			d.pendingOp = y
			d.after = afAwait
			d.switchOut(trace.StateWaiting, dcParked)
			return nextParked
		}
	}
}

// blockOnOp parks the task on its pending blocking op.
func (d *contDriver) blockOnOp() {
	s := trace.StateWaiting
	if d.pendingOp.resource {
		s = trace.StateWaitingResource
	}
	d.switchOut(s, dcParked)
}

// sliceStep is the head of Execute's loop: run the abort/hang/ISR/preempt
// checkpoints, then arm a slice for the remaining duration. It returns
// nextProgram once the remaining duration is exhausted.
func (d *contDriver) sliceStep() contNext {
	t, cpu := d.t, d.cpu
	for d.remaining > 0 {
		if t.abortPending {
			return d.jobAbort()
		}
		if t.hangPending {
			t.hang()
			d.after = afHang
			d.switchOut(trace.StateWaiting, dcParked)
			return nextParked
		}
		if ic := cpu.irqCtrl; ic != nil && ic.active != nil {
			// An ISR has borrowed the processor: wait in place (no RTOS
			// call, no context switch) until interrupt handling completes.
			d.state = dcIsrWait
			return nextParked
		}
		if t.preemptPending && t.preemptible() {
			d.after = afExec
			d.switchOut(trace.StateReady, dcParked)
			return nextParked
		}
		t.preemptPending = false // stale request while non-preemptible
		d.sliceStart = cpu.k.Now()
		d.state = dcExecSlice
		d.s.WakeIn(d.remaining)
		return nextParked
	}
	return nextProgram
}

// sliceWake ends a Compute slice: the timer expiring means the slice ran to
// completion; any earlier wake (TaskPreempt, ISR begin) re-enters the
// checkpoint loop with the elapsed time accounted at the wake instant.
func (d *contDriver) sliceWake() {
	t, cpu := d.t, d.cpu
	timedOut := !d.s.WakePending()
	if !timedOut {
		d.s.CancelWake()
	}
	elapsed := cpu.k.Now() - d.sliceStart
	d.remaining -= elapsed
	t.cpuTime += elapsed
	cpu.met.coreBusy[t.lastCore].Add(uint64(elapsed))
	if timedOut {
		d.advance(nextProgram)
		return
	}
	d.advance(d.sliceStep())
}

// isrWake resumes the interrupted slice once interrupt handling completes.
func (d *contDriver) isrWake() {
	if ic := d.cpu.irqCtrl; ic != nil && ic.active != nil {
		return // another line is still being serviced
	}
	d.advance(d.sliceStep())
}

// sleep parks the task in Waiting until its delay event fires in dur, then
// resumes the lifecycle at after: the driver's Task.sleep.
func (d *contDriver) sleep(dur sim.Time, after afterKind) {
	d.t.delayEvent.NotifyIn(dur)
	d.after = after
	d.switchOut(trace.StateWaiting, dcParked)
}

// switchOut takes the task off its core into state s and runs the outgoing
// half of the context switch. Under the threaded engine the vacated core's
// RTOS thread performs it; under the procedural engine the driver replays
// switchOutOn as a microprogram on its own strand.
func (d *contDriver) switchOut(s trace.TaskState, final contState) {
	t, cpu := d.t, d.cpu
	c := cpu.leaveRunning(t, s)
	d.outFinal = final
	if cpu.eng.switchOutCont(c, t) {
		d.finishOut()
		return
	}
	d.outCore = c
	dur := cpu.overheadDur(trace.OverheadContextSave, cpu.overheadCtxOn(c, t))
	d.chargeStart = cpu.k.Now()
	if dur > 0 {
		d.state = dcOutSave
		d.s.WakeIn(dur)
		return
	}
	d.outSaveDone()
}

func (d *contDriver) outSaveDone() {
	cpu := d.cpu
	cpu.recordCharge(trace.OverheadContextSave, d.t, d.outCore.id, d.chargeStart, cpu.k.Now())
	d.state = dcOutSettle
	d.s.WakeDelta()
}

// outDispatch is dispatchOn's head: with nothing ready the core goes idle,
// otherwise charge the scheduling duration and settle before the election.
func (d *contDriver) outDispatch() {
	cpu, c := d.cpu, d.outCore
	if len(cpu.queueFor(c.id).tasks) == 0 {
		c.switching = false
		d.finishOut()
		return
	}
	dur := cpu.overheadDur(trace.OverheadScheduling, cpu.overheadCtxOn(c, nil))
	d.chargeStart = cpu.k.Now()
	if dur > 0 {
		d.state = dcOutSched
		d.s.WakeIn(dur)
		return
	}
	d.outSchedDone()
}

func (d *contDriver) outSchedDone() {
	cpu := d.cpu
	cpu.recordCharge(trace.OverheadScheduling, nil, d.outCore.id, d.chargeStart, cpu.k.Now())
	d.state = dcOutSettleB
	d.s.WakeDelta()
}

// outElect finishes the switch-out: elect and grant the vacated core's next
// task, then settle the driver itself (the winner may be this very task,
// yielding straight back onto the core — its grant is picked up by
// finishOut's maybeGrant, exactly as awaitDispatch picks it up after
// switchOutOn returns).
func (d *contDriver) outElect() {
	cpu, c := d.cpu, d.outCore
	if len(cpu.queueFor(c.id).tasks) == 0 {
		// Another core of a global domain drained the queue during the
		// scheduling window: the decision found nothing to run.
		c.switching = false
		d.finishOut()
		return
	}
	e := cpu.electOn(c)
	if e == nil {
		c.switching = false
		d.finishOut()
		return
	}
	e.grant(grantLoad, c.id)
	d.finishOut()
}

// finishOut closes the switch-out: the driver enters its recorded final
// state and picks up any grant whose notify was consumed mid-microprogram.
func (d *contDriver) finishOut() {
	if d.outFinal == dcDone {
		d.state = dcDone
		d.s.Finish()
		return
	}
	d.state = dcParked
	d.maybeGrant()
}

// cycleStart opens one periodic cycle and sleeps out its release jitter:
// the head of runCycle.
func (d *contDriver) cycleStart() contNext {
	if dur := d.t.sched.open(); dur > 0 {
		d.sleep(dur, afJitterSleep)
		return nextParked
	}
	return nextBody
}

// startBody enters the job body: a one-shot task's behaviour, a periodic
// task's cycle body (runCycle's body call).
func (d *contDriver) startBody() contNext {
	d.t.inJob = true
	d.cont.Reset()
	return nextProgram
}

// jobEnd completes a job: runCycle's and runBehaviour's normal return.
func (d *contDriver) jobEnd() contNext {
	d.t.completeJob()
	return d.jobClosed(false)
}

// jobAbort lands a requested abort at a checkpoint: the continuation
// analogue of abortJob's panic unwinding into runCycle or runBehaviour.
func (d *contDriver) jobAbort() contNext {
	d.t.abortPending = false
	d.t.landAbort()
	return d.jobClosed(true)
}

// jobClosed follows the end of a job: a one-shot task terminates, leaving
// the processor for good; a periodic task closes the cycle and sleeps until
// its next release or chains straight into it (NewPeriodicTask's loop).
func (d *contDriver) jobClosed(aborted bool) contNext {
	s := d.t.sched
	if s == nil {
		d.switchOut(trace.StateTerminated, dcDone)
		return nextParked
	}
	if dur := s.close(aborted); dur > 0 {
		d.sleep(dur, afReleaseSleep)
		return nextParked
	}
	return nextCycle
}
