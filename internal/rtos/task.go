// Package rtos implements the paper's generic RTOS model on top of the
// discrete-event kernel of package sim.
//
// A Processor models a CPU managed by a real-time operating system: it
// serializes the execution of its Tasks according to a scheduling Policy, a
// preemptive/non-preemptive mode that can change during the simulation, and
// the three RTOS overhead parameters of the paper's section 3.2 (scheduling
// duration, context-save duration, context-load duration — fixed values or
// user formulas over the simulated system state).
//
// Two interchangeable engine implementations are provided, mirroring the
// paper's section 4: EngineThreaded schedules with a dedicated RTOS
// simulation thread (section 4.1), EngineProcedural integrates the RTOS
// behaviour into the task state transitions using plain procedure calls
// (section 4.2). Both produce identical simulated timing; the procedural
// engine needs far fewer kernel thread switches and therefore simulates
// faster, which is the paper's reason for selecting it.
package rtos

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TaskState re-exports the trace state vocabulary for convenience.
type TaskState = trace.TaskState

// Task scheduling states (section 4 of the paper) plus the auxiliary
// lifecycle states displayed by the TimeLine tool.
const (
	StateCreated         = trace.StateCreated
	StateReady           = trace.StateReady
	StateRunning         = trace.StateRunning
	StateWaiting         = trace.StateWaiting
	StateWaitingResource = trace.StateWaitingResource
	StateTerminated      = trace.StateTerminated
)

// grantKind tells a task waking on its TaskRun event which part of the
// dispatch overhead it must charge on its own thread.
type grantKind uint8

const (
	grantNone grantKind = iota
	// grantLoad: the task was elected; charge the context-load duration and
	// start running.
	grantLoad
	// grantSchedLoad: fast idle-processor wakeup (procedural engine): charge
	// the scheduling duration first, then re-elect; if still elected, charge
	// the load and run, otherwise pass a grantLoad on to the elected task.
	grantSchedLoad
)

// TaskConfig carries the static parameters of a task.
type TaskConfig struct {
	// Priority is the task's fixed base priority; higher runs first under
	// the PriorityPreemptive policy.
	Priority int
	// StartAt delays the task's first release; zero starts it at the
	// beginning of the simulation.
	StartAt sim.Time
	// Period is scheduling metadata used by AssignRateMonotonic and the
	// periodic-task helper; zero for aperiodic tasks.
	Period sim.Time
	// Deadline is the task's relative deadline, used by the periodic-task
	// helper and the EDF policy; zero means none (ranks last under EDF).
	Deadline sim.Time
	// Jitter is the maximum release jitter of a periodic task: each cycle's
	// activation is delayed by a deterministic pseudo-random amount in
	// [0, Jitter] while its deadline stays anchored at the nominal release.
	// Must be smaller than the period.
	Jitter sim.Time
	// OnMiss selects the automatic recovery action taken when a cycle of a
	// periodic task misses its deadline; the default MissContinue takes
	// none. Ignored for aperiodic tasks.
	OnMiss MissPolicy
	// OnMissHook, when non-nil, is consulted at each deadline miss and
	// returns the recovery action to take, overriding OnMiss. It runs in
	// simulation context and must not block.
	OnMissHook func(MissInfo) MissPolicy
	// Affinity pins the task to one core of a multi-core processor under
	// DomainPartitioned (the default 0 is core 0, so single-core task sets
	// need no change). It must be a valid core index and must stay 0 under
	// DomainGlobal, where the scheduler places tasks freely.
	Affinity int
}

// Task is a software task scheduled by a Processor's RTOS model. Create
// tasks with Processor.NewTask before the simulation starts.
type Task struct {
	name    string
	recName trace.Name // name interned in the processor's trace recorder
	cpu     *Processor
	cfg     TaskConfig
	fn      func(*TaskCtx)

	basePrio int
	boosts   []int // priority-inheritance stack (effective = max)

	deadline sim.Time // absolute deadline for EDF; TimeMax when unset
	period   sim.Time

	state    trace.TaskState
	readySeq uint64

	// affinity is the task's pinned core under DomainPartitioned (always 0
	// under DomainGlobal). lastCore is the core of the most recent dispatch
	// (-1 before the first one); a dispatch onto a different core is a
	// migration. claimedBy is the id of the idle core holding a claim on this
	// ready task, -1 when unclaimed (see schedcore.go).
	affinity  int
	lastCore  int
	claimedBy int

	// proc is the task's simulation thread under the goroutine engines; nil
	// for a continuation task, whose driver (cont) runs on a sim.Strand
	// instead (engine_cont.go).
	proc      *sim.Proc
	cont      *contDriver
	sched     *releaseSchedule // periodic tasks only (lifecycle.go)
	evRun     *sim.Event       // the paper's TaskRun event
	evPreempt *sim.Event       // the paper's TaskPreempt event

	pendingGrant   grantKind
	grantCore      int // core the pending grant dispatches onto
	preemptPending bool
	noPreemptDepth int

	delayEvent *sim.Event // wakes Delay; lazily created

	ctx *TaskCtx

	// Fault-injection and recovery state (fault.go, recovery.go).
	wcetFault      *WCETOverrun
	execSeq        uint64 // Execute occurrence counter for fault decisions
	inJob          bool   // a job (periodic cycle or one-shot body) is in flight
	abortPending   bool   // abandon the current job at the next checkpoint
	abortReason    string // recovery label recorded when the abort lands
	restartPending bool   // re-release immediately after the abort
	skipNext       bool   // skip the next periodic release
	hangPending    bool   // become stuck at the next Execute instant
	hangDur        sim.Time
	hung           bool // currently stuck in an injected hang

	// Aggregate counters, readable after the simulation.
	dispatches      uint64
	preemptions     uint64
	migrations      uint64
	cpuTime         sim.Time
	completedCycles uint64
	abortedCycles   uint64

	// Priority-inversion accounting (inversion.go); only maintained when the
	// processor has tracking enabled.
	invOpen  bool
	invSince sim.Time
	invMax   sim.Time
	invTotal sim.Time

	// Per-task observability instruments (metrics.go); registered by the
	// periodic-task helper, nil-safe otherwise. lastResp/hasResp feed the
	// cycle-to-cycle jitter histogram.
	metResp   *metrics.Histogram
	metJitter *metrics.Histogram
	metMisses *metrics.Counter
	lastResp  sim.Time
	hasResp   bool
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Processor returns the processor the task runs on.
func (t *Task) Processor() *Processor { return t.cpu }

// State returns the task's current scheduling state.
func (t *Task) State() trace.TaskState { return t.state }

// BasePriority returns the task's assigned priority.
func (t *Task) BasePriority() int { return t.basePrio }

// SetBasePriority changes the task's base priority; the scheduler is
// re-evaluated so a raised ready task may preempt the running one.
func (t *Task) SetBasePriority(p int) {
	t.basePrio = p
	if t.cpu != nil && t.cpu.eng != nil {
		t.cpu.invalidateReadyBest()
		t.cpu.eng.reevaluate()
	}
}

// EffectivePriority returns the priority the scheduler sees: the base
// priority possibly raised by priority inheritance.
func (t *Task) EffectivePriority() int {
	p := t.basePrio
	for _, b := range t.boosts {
		if b > p {
			p = b
		}
	}
	return p
}

// Deadline returns the task's current absolute deadline (TimeMax if unset).
func (t *Task) Deadline() sim.Time { return t.deadline }

// Period returns the task's period metadata.
func (t *Task) Period() sim.Time { return t.period }

// Dispatches returns how many times the task was elected to run.
func (t *Task) Dispatches() uint64 { return t.dispatches }

// Preemptions returns how many times the task was preempted.
func (t *Task) Preemptions() uint64 { return t.preemptions }

// Migrations returns how many dispatches placed the task on a different core
// than its previous one (always zero under DomainPartitioned).
func (t *Task) Migrations() uint64 { return t.migrations }

// Affinity returns the core the task is pinned to under DomainPartitioned.
func (t *Task) Affinity() int { return t.affinity }

// IsContinuation reports whether the task runs on the continuation engine (a
// driver strand) instead of a goroutine of its own.
func (t *Task) IsContinuation() bool { return t.cont != nil }

// CPUTime returns the total simulated processor time the task consumed.
func (t *Task) CPUTime() sim.Time { return t.cpuTime }

// CompletedCycles returns how many periodic cycles (or one-shot jobs) ran to
// completion.
func (t *Task) CompletedCycles() uint64 { return t.completedCycles }

// AbortedCycles returns how many jobs were abandoned by a recovery action
// (injected crash, deadline-miss policy, watchdog restart).
func (t *Task) AbortedCycles() uint64 { return t.abortedCycles }

// preemptible reports whether the task may currently be preempted.
func (t *Task) preemptible() bool {
	return t.cpu.preemptive && t.noPreemptDepth == 0
}

// setState records a state transition, tagged with the core of the task's
// most recent dispatch (0 before the first one).
func (t *Task) setState(s trace.TaskState) {
	t.state = s
	c := t.lastCore
	if c < 0 {
		c = 0
	}
	t.cpu.rec.RecordState(t.recName, t.cpu.recName, c, s)
}

// grant elects the task onto core coreID: pendingGrant tells its thread what
// overhead to charge; the TaskRun event wakes it if it is already parked.
func (t *Task) grant(g grantKind, coreID int) {
	t.pendingGrant = g
	t.grantCore = coreID
	t.evRun.Notify()
}

// requestPreempt asks the running task to yield the processor. The flag
// survives until the task reaches a preemption point (its Execute loop); the
// event wakes it if it is inside one.
func (t *Task) requestPreempt() {
	t.preemptPending = true
	t.evPreempt.Notify()
}

// awaitDispatch parks the task's thread until it is elected, charging the
// granted share of the dispatch overhead on its own thread, and returns with
// the task in the Running state. This is the common half of both engines:
// the context-load duration is always charged by the elected task itself.
func (t *Task) awaitDispatch() {
	cpu := t.cpu
	for {
		if t.pendingGrant == grantNone {
			t.proc.WaitEvent(t.evRun)
		}
		g := t.pendingGrant
		t.pendingGrant = grantNone
		c := &cpu.cores[t.grantCore]
		switch g {
		case grantSchedLoad:
			// Idle-core wakeup (procedural engine): this thread runs the
			// scheduler for the core it claimed. Other tasks arriving during
			// the scheduling window take part in the election; the settle
			// deltas let same-instant arrivals join (and be seen by the
			// overhead formula) even with zero overhead.
			t.proc.WaitDelta()
			cpu.charge(t.proc, trace.OverheadScheduling, nil, cpu.overheadCtxOn(c, nil))
			t.proc.WaitDelta()
			cpu.clearClaim(t)
			elected := cpu.electOn(c)
			if elected != t {
				if elected != nil {
					elected.grant(grantLoad, c.id)
				} else {
					c.switching = false
				}
				// Losing the election leaves this task unclaimed in the
				// queue; if another eligible core sits idle (multi-core),
				// claim it and re-run the scheduler there, otherwise wait.
				if c2 := cpu.claimIdleCore(t); c2 != nil {
					t.grant(grantSchedLoad, c2.id)
				}
				continue
			}
		case grantLoad:
			// Elected by another thread; it already removed us from the
			// ready queue.
		default:
			continue // spurious wake
		}
		cpu.charge(t.proc, trace.OverheadContextLoad, t, cpu.overheadCtxOn(c, t))
		cpu.finishDispatch(t, c)
		return
	}
}

// threadBody is the task's simulation-thread entry point.
func (t *Task) threadBody(p *sim.Proc) {
	t.setState(trace.StateCreated)
	if t.cfg.StartAt > 0 {
		p.Wait(t.cfg.StartAt)
	}
	t.cpu.eng.taskIsReady(t)
	t.awaitDispatch()
	t.runBehaviour()
	t.cpu.eng.taskFinished(t)
}

// runBehaviour runs the task function. A job abort that unwinds all the way
// here (a one-shot task's) terminates the task early instead of killing the
// simulation.
func (t *Task) runBehaviour() (aborted bool) {
	defer t.catchAbort(&aborted)
	t.inJob = t.sched == nil // a periodic task's jobs are its cycles (runCycle)
	t.fn(t.ctx)
	t.completeJob()
	return false
}

// catchAbort is deferred around a job on the task's goroutine: a job abort
// unwinding from a checkpoint lands here and sets *aborted; any other panic
// keeps unwinding.
func (t *Task) catchAbort(aborted *bool) {
	if r := recover(); r != nil {
		if _, ok := r.(jobAborted); !ok {
			panic(r)
		}
		t.landAbort()
		*aborted = true
	}
}

// TaskCtx is the API a task behaviour uses to interact with the RTOS model:
// consume processor time, sleep, adjust priority and deadline, and toggle
// preemption. It also implements the comm.Actor contract so the task can use
// the communication relations of package comm.
type TaskCtx struct {
	t *Task
}

// requireThread guards the blocking primitives against continuation tasks,
// which have no goroutine to park: their bodies express the same operations
// as yield ops (yield.go).
func (c *TaskCtx) requireThread(call string) {
	if c.t.proc == nil {
		panic(fmt.Sprintf("rtos: %s called by continuation task %q; continuation bodies must use yield ops", call, c.t.name))
	}
}

// Task returns the underlying task.
func (c *TaskCtx) Task() *Task {
	return c.t
}

// Name returns the task name (also the comm.Actor name).
func (c *TaskCtx) Name() string {
	return c.t.name
}

// Priority returns the task's effective priority (comm.Actor contract).
func (c *TaskCtx) Priority() int {
	return c.t.EffectivePriority()
}

// Now returns the current simulated time.
func (c *TaskCtx) Now() sim.Time {
	return c.t.cpu.k.Now()
}

// Kernel returns the simulation kernel.
func (c *TaskCtx) Kernel() *sim.Kernel {
	return c.t.cpu.k
}

// Recorder returns the trace recorder (comm.Actor contract).
func (c *TaskCtx) Recorder() *trace.Recorder {
	return c.t.cpu.rec
}

// Execute consumes d of processor time. This is the paper's time-annotated
// processing: the task occupies the processor for a total of d, but may be
// preempted at any instant in between; the remaining duration is recomputed
// exactly at the preemption instant (the TaskIsPreempted behaviour of
// section 4.2), so the model's preemption accuracy does not depend on any
// clock resolution.
func (c *TaskCtx) Execute(d sim.Time) {
	c.requireThread("Execute")
	t := c.t
	remaining := t.execBudget(d)
	for remaining > 0 {
		// Abort and hang checkpoints: an injected crash, a deadline-miss
		// recovery or a watchdog restart takes effect here; an injected hang
		// parks the task in place, preserving the remaining duration.
		if t.abortPending {
			t.abortJob()
		}
		if t.hangPending {
			t.enterHang()
			continue
		}
		if ic := t.cpu.irqCtrl; ic != nil && ic.active != nil {
			// An ISR has borrowed the processor: wait in place (no RTOS
			// call, no context switch) until interrupt handling completes.
			// The remaining duration is untouched: the task did not run.
			t.proc.WaitEvent(ic.doneEv)
			continue
		}
		if t.preemptPending && t.preemptible() {
			t.cpu.eng.taskYield(t)
			continue
		}
		t.preemptPending = false // stale request while non-preemptible
		start := t.proc.Now()
		_, timedOut := t.proc.WaitTimeout(remaining, t.evPreempt)
		elapsed := t.proc.Now() - start
		remaining -= elapsed
		t.cpuTime += elapsed
		t.cpu.met.coreBusy[t.lastCore].Add(uint64(elapsed))
		if timedOut {
			break
		}
		// Woken by TaskPreempt: loop re-checks the ISR and preemption
		// conditions; a request received while non-preemptible is dropped
		// and execution resumes.
	}
}

// execBudget checks an Execute of d and returns the processor time it
// consumes: d scaled to the processor's speed, inflated by an injected WCET
// overrun.
func (t *Task) execBudget(d sim.Time) sim.Time {
	if d < 0 {
		panic("rtos: Execute with negative duration")
	}
	if t.state != trace.StateRunning {
		panic(fmt.Sprintf("rtos: Execute called by task %q in state %v", t.name, t.state))
	}
	return t.inflateWCET(t.cpu.scaleExec(d))
}

// Delay suspends the task for duration d (Waiting state): the task does not
// use the processor and becomes ready again when the delay expires.
func (c *TaskCtx) Delay(d sim.Time) {
	c.requireThread("Delay")
	if d < 0 {
		panic("rtos: Delay with negative duration")
	}
	t := c.t
	if d == 0 {
		return
	}
	t.sleep(d)
	if t.abortPending {
		t.abortJob()
	}
}

// sleep blocks the task's thread in Waiting for d > 0 without using the
// processor: Delay without its abort checkpoint.
func (t *Task) sleep(d sim.Time) {
	t.armDelayWake()
	t.delayEvent.NotifyIn(d)
	t.cpu.eng.taskIsBlocked(t, trace.StateWaiting)
	t.awaitDispatch()
}

// armDelayWake lazily creates the event (and wake method) that ends a Delay;
// also reused by an injected finite hang.
func (t *Task) armDelayWake() {
	if t.delayEvent == nil {
		t.delayEvent = t.cpu.k.NewEvent(t.name + ".delay")
		t.cpu.k.NewMethod(t.name+".delayWake", func() {
			t.cpu.eng.taskIsReady(t)
		}, false, t.delayEvent)
	}
}

// SleepFor suspends the task for d without using the processor; it makes
// TaskCtx satisfy the bus.Sleeper contract (a DMA-style transfer frees the
// CPU).
func (c *TaskCtx) SleepFor(d sim.Time) { c.Delay(d) }

// DelayUntil suspends the task until absolute simulated time at; it returns
// immediately if at is not in the future.
func (c *TaskCtx) DelayUntil(at sim.Time) {
	if d := at - c.Now(); d > 0 {
		c.Delay(d)
	}
}

// Yield voluntarily releases the processor: the task returns to the ready
// queue and the scheduler elects the next task (possibly this one again).
func (c *TaskCtx) Yield() {
	c.requireThread("Yield")
	c.t.cpu.eng.taskYield(c.t)
}

// SetPriority changes the task's base priority at run time.
func (c *TaskCtx) SetPriority(p int) {
	c.t.SetBasePriority(p)
}

// SetDeadline sets the task's absolute deadline (for the EDF policy).
func (c *TaskCtx) SetDeadline(at sim.Time) {
	c.t.deadline = at
	c.t.cpu.invalidateReadyBest()
	c.t.cpu.eng.reevaluate()
}

// SetDeadlineIn sets the task's deadline relative to the current time.
func (c *TaskCtx) SetDeadlineIn(d sim.Time) {
	c.SetDeadline(c.Now() + d)
}

// DisablePreemption enters a critical region during which the task cannot
// be preempted (paper section 3.1: "the preemptive/non-preemptive mode can
// be changed during the simulation. This enables to model critical regions
// during which task preemption is not allowed"). Calls nest.
func (c *TaskCtx) DisablePreemption() {
	c.t.noPreemptDepth++
}

// EnablePreemption leaves a critical region opened by DisablePreemption.
// If a preemption request arrived meanwhile it takes effect at the task's
// next preemption point.
func (c *TaskCtx) EnablePreemption() {
	t := c.t
	if t.noPreemptDepth == 0 {
		panic("rtos: EnablePreemption without matching DisablePreemption")
	}
	t.noPreemptDepth--
	if t.noPreemptDepth == 0 {
		t.cpu.eng.reevaluate()
	}
}

// Suspend blocks the task on an external condition (comm.Actor contract):
// resource selects the WaitingResource state (mutual exclusion) over the
// plain Waiting state. The call returns when some actor calls Resume and the
// scheduler elects the task again.
func (c *TaskCtx) Suspend(resource bool, object string) {
	c.requireThread("Suspend")
	s := trace.StateWaiting
	if resource {
		s = trace.StateWaitingResource
	}
	c.t.cpu.eng.taskIsBlocked(c.t, s)
	c.t.awaitDispatch()
}

// Resume makes a suspended task ready again (comm.Actor contract). It is
// safe to call from any simulation context (another task, a hardware
// process, a sim.Method) and never consumes the caller's simulated time.
func (c *TaskCtx) Resume() {
	c.t.cpu.eng.taskIsReady(c.t)
}

// BoostPriority raises the task's effective priority to at least p
// (priority-inheritance support for comm.Mutex).
func (c *TaskCtx) BoostPriority(p int) {
	c.t.boosts = append(c.t.boosts, p)
	c.t.cpu.invalidateReadyBest()
	c.t.cpu.eng.reevaluate()
}

// UnboostPriority undoes the most recent BoostPriority.
func (c *TaskCtx) UnboostPriority() {
	n := len(c.t.boosts)
	if n == 0 {
		panic("rtos: UnboostPriority without matching BoostPriority")
	}
	c.t.boosts = c.t.boosts[:n-1]
	c.t.cpu.invalidateReadyBest()
	c.t.cpu.eng.reevaluate()
}
