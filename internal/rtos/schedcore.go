package rtos

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the schedCore: the one implementation of election, dispatch,
// preemption checking and overhead accounting shared by both engine
// implementations. The engines (engine_proc.go, engine_thread.go) only decide
// *when* and *on whose thread* these primitives run — the paper's section
// 4.1/4.2 comparison — never *what* they decide.

// SchedDomain selects how a multi-core processor distributes its tasks.
type SchedDomain uint8

const (
	// DomainPartitioned pins every task to one core (TaskConfig.Affinity)
	// with a per-core ready queue; a 1-core partitioned processor reproduces
	// the single-CPU model of the paper exactly.
	DomainPartitioned SchedDomain = iota
	// DomainGlobal shares one ready queue between all cores: a ready task is
	// dispatched onto any idle core and may migrate between cores across
	// preemptions (migrations are counted and traced).
	DomainGlobal
)

func (d SchedDomain) String() string {
	switch d {
	case DomainPartitioned:
		return "partitioned"
	case DomainGlobal:
		return "global"
	}
	return "invalid"
}

// core is one execution unit of a Processor: its running task and its switch
// window.
type core struct {
	id      int
	running *Task
	// switching is true while a dispatch sequence is in progress on this core
	// (between a task leaving it — or a ready task claiming it idle — and the
	// elected task completing its context load). New ready tasks arriving
	// during the window only join the queue; they take part in the election.
	switching bool
	// claimant is the task that reserved this idle core on becoming ready and
	// has not run its election yet; elections on other cores skip it so two
	// cores can never dispatch the same task.
	claimant *Task

	quantumEvent *sim.Event
}

// readyQueue is one ready-task queue: per core under DomainPartitioned, a
// single shared instance under DomainGlobal.
type readyQueue struct {
	tasks []*Task

	// (best, bestIdx) cache the argmin of tasks under an ordered policy's
	// preference order while bestOK holds (see orderedPolicy): arrivals cost
	// one comparison and elections skip the queue rescan.
	best    *Task
	bestIdx int
	bestOK  bool

	// claims counts queued tasks currently holding an idle-core claim.
	claims int

	// scratch is a reusable buffer for claim-filtered elections with custom
	// (non-ordered) policies, so the multi-core path stays allocation-free.
	scratch []*Task
}

// queueFor returns the ready queue core coreID elects from.
func (cpu *Processor) queueFor(coreID int) *readyQueue {
	if cpu.domain == DomainGlobal {
		return &cpu.queues[0]
	}
	return &cpu.queues[coreID]
}

// queueOf returns the ready queue task t waits in.
func (cpu *Processor) queueOf(t *Task) *readyQueue {
	if cpu.domain == DomainGlobal {
		return &cpu.queues[0]
	}
	return &cpu.queues[t.affinity]
}

// enqueueReady puts t in its ready queue and records the Ready state.
func (cpu *Processor) enqueueReady(t *Task) {
	cpu.readySeqCtr++
	t.readySeq = cpu.readySeqCtr
	q := cpu.queueOf(t)
	q.tasks = append(q.tasks, t)
	cpu.met.readyDepth.Add(1)
	if cpu.ordered != nil {
		if n := len(q.tasks); n == 1 {
			q.best, q.bestIdx, q.bestOK = t, 0, true
		} else if q.bestOK && cpu.ordered.prefer(t, q.best) {
			q.best, q.bestIdx = t, n-1
		}
	}
	t.setState(trace.StateReady)
	if cpu.invTrack {
		cpu.inversionSample(t, cpu.k.Now())
	}
}

// invalidateReadyBest drops the best-ready caches; called when an ordering
// input of a task (priority, deadline) changes.
func (cpu *Processor) invalidateReadyBest() {
	for i := range cpu.queues {
		cpu.queues[i].best, cpu.queues[i].bestOK = nil, false
	}
	if cpu.invTrack {
		// An ordering input changed (priority, deadline, inheritance boost):
		// what counts as inverted may have flipped for any task.
		cpu.inversionResample()
	}
}

// bestOf returns the argmin of the non-empty queue under the ordered
// policy's preference order, rescanning only when the cache was invalidated.
func (cpu *Processor) bestOf(q *readyQueue) *Task {
	if !q.bestOK {
		best, idx := q.tasks[0], 0
		for i, t := range q.tasks[1:] {
			if cpu.ordered.prefer(t, best) {
				best, idx = t, i+1
			}
		}
		q.best, q.bestIdx, q.bestOK = best, idx, true
	}
	return q.best
}

// removeOrderedAt removes the task at index i by swapping with the tail:
// ordered elections are independent of queue positions, only of the
// preference order, so the swap is safe and O(1).
func (q *readyQueue) removeOrderedAt(i int) *Task {
	e := q.tasks[i]
	last := len(q.tasks) - 1
	q.tasks[i] = q.tasks[last]
	q.tasks[last] = nil
	q.tasks = q.tasks[:last]
	q.best, q.bestOK = nil, false
	return e
}

// electOn runs the scheduling policy for core c and removes the winner from
// its ready queue. Tasks holding a claim on another core are not eligible
// (their claiming core is about to dispatch them). Returns nil when no
// eligible task exists; panics on an empty queue (engines check first, and
// the check is part of the pinned dispatch protocol).
func (cpu *Processor) electOn(c *core) *Task {
	e := cpu.electOn0(c)
	if e != nil {
		cpu.met.elections.Inc()
		cpu.met.readyDepth.Add(-1)
		if cpu.invTrack && e.invOpen {
			// Election definitionally ends the winner's inversion: the core
			// it was waiting for is now dispatching it.
			cpu.closeInversion(e, cpu.k.Now())
		}
	}
	return e
}

func (cpu *Processor) electOn0(c *core) *Task {
	q := cpu.queueFor(c.id)
	if len(q.tasks) == 0 {
		panic("rtos: elect with empty ready queue")
	}
	if cpu.ordered != nil {
		// The cached winner's position is stable (arrivals only append), so
		// removal is a swap with the tail.
		if e := cpu.bestOf(q); e.claimedBy < 0 {
			return q.removeOrderedAt(q.bestIdx)
		}
		// The overall best is claimed by another core (multi-core global
		// domain only): elect the best unclaimed task instead, leaving the
		// cache to the claiming core's own election.
		var best *Task
		idx := -1
		for i, t := range q.tasks {
			if t.claimedBy >= 0 {
				continue
			}
			if best == nil || cpu.ordered.prefer(t, best) {
				best, idx = t, i
			}
		}
		if best == nil {
			return nil
		}
		return q.removeOrderedAt(idx)
	}
	pool := q.tasks
	if q.claims > 0 {
		q.scratch = q.scratch[:0]
		for _, t := range q.tasks {
			if t.claimedBy < 0 {
				q.scratch = append(q.scratch, t)
			}
		}
		if len(q.scratch) == 0 {
			return nil
		}
		pool = q.scratch
	}
	e := cpu.policy.Select(pool)
	if e == nil {
		panic(fmt.Sprintf("rtos: policy %q selected no task from a non-empty ready queue", cpu.policy.Name()))
	}
	for i, r := range q.tasks {
		if r == e {
			q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
			return e
		}
	}
	panic(fmt.Sprintf("rtos: policy %q selected task %q which is not ready", cpu.policy.Name(), e.name))
}

// claim reserves idle core c for ready task t: the core's switch window
// opens and elections on other cores skip t until the claim resolves into
// c's own election.
func (cpu *Processor) claim(c *core, t *Task) {
	c.switching = true
	c.claimant = t
	t.claimedBy = c.id
	cpu.queueOf(t).claims++
}

// clearClaim releases t's idle-core claim (immediately before the claiming
// core's election, or never — claims always resolve).
func (cpu *Processor) clearClaim(t *Task) {
	if t.claimedBy < 0 {
		return
	}
	cpu.cores[t.claimedBy].claimant = nil
	cpu.queueOf(t).claims--
	t.claimedBy = -1
}

// claimIdleCore claims an idle core eligible for t (its pinned core under
// DomainPartitioned, the lowest-numbered idle core under DomainGlobal) and
// returns it, or nil when every eligible core is busy or switching.
func (cpu *Processor) claimIdleCore(t *Task) *core {
	if cpu.domain == DomainPartitioned {
		c := &cpu.cores[t.affinity]
		if c.running != nil || c.switching {
			return nil
		}
		cpu.claim(c, t)
		return c
	}
	for i := range cpu.cores {
		c := &cpu.cores[i]
		if c.running == nil && !c.switching {
			cpu.claim(c, t)
			return c
		}
	}
	return nil
}

// hasUnclaimedReady reports whether core c's queue holds a task no other
// core has claimed — i.e. whether an idle c has anything to dispatch.
func (cpu *Processor) hasUnclaimedReady(c *core) bool {
	q := cpu.queueFor(c.id)
	return len(q.tasks) > q.claims
}

// dispatchOn runs the dispatch half of a context switch on thread p for core
// c: charge the scheduling duration, settle, elect, and grant the winner its
// context load. With nothing ready (or every queued task claimed by another
// core) the core goes idle. Returns the elected task, nil when none.
func (cpu *Processor) dispatchOn(p *sim.Proc, c *core) *Task {
	q := cpu.queueFor(c.id)
	if len(q.tasks) == 0 {
		c.switching = false
		return nil
	}
	cpu.charge(p, trace.OverheadScheduling, nil, cpu.overheadCtxOn(c, nil))
	p.WaitDelta() // settle before the election
	if len(q.tasks) == 0 {
		// Another core of a global domain drained the queue during the
		// scheduling window: the decision found nothing to run.
		c.switching = false
		return nil
	}
	e := cpu.electOn(c)
	if e == nil {
		c.switching = false
		return nil
	}
	e.grant(grantLoad, c.id)
	return e
}

// switchOutOn runs the outgoing half of a context switch on thread p: charge
// the context-save duration for task out leaving core c, settle so
// same-instant arrivals join the ready queue, then dispatch.
func (cpu *Processor) switchOutOn(p *sim.Proc, c *core, out *Task) *Task {
	cpu.charge(p, trace.OverheadContextSave, out, cpu.overheadCtxOn(c, out))
	p.WaitDelta()
	return cpu.dispatchOn(p, c)
}

// finishDispatch completes a dispatch on the elected task's own thread: the
// task becomes core c's running task and the switch window closes. A switch
// onto a different core than the previous dispatch is a migration (global
// domain). If a preemption-worthy task arrived during the context load it is
// honoured at the task's first preemption point.
func (cpu *Processor) finishDispatch(t *Task, c *core) {
	c.running = t
	c.switching = false
	if t.lastCore >= 0 && t.lastCore != c.id {
		t.migrations++
		cpu.migrations++
		cpu.met.migrations.Inc()
		cpu.rec.Migrate(t.name, cpu.name, t.lastCore, c.id)
	}
	t.lastCore = c.id
	t.setState(trace.StateRunning)
	t.dispatches++
	cpu.dispatches++
	cpu.met.dispatches.Inc()
	cpu.armQuantum(c)
	if cpu.invTrack {
		cpu.inversionResample()
	}
	cpu.checkPreemptOn(c)
}

// leaveRunning takes t off its core (it must be that core's running task),
// transitioning it to state s, and opens the switch window. It returns the
// vacated core, which the engine must now dispatch.
func (cpu *Processor) leaveRunning(t *Task, s trace.TaskState) *core {
	c := &cpu.cores[t.lastCore]
	if c.running != t {
		panic(fmt.Sprintf("rtos: task %q leaving the processor is not the running task", t.name))
	}
	c.running = nil
	c.switching = true
	cpu.cancelQuantum(c)
	t.preemptPending = false
	if s == trace.StateReady {
		cpu.enqueueReady(t)
		t.preemptions++
		cpu.preemptions++
		cpu.met.preemptions.Inc()
	} else {
		t.setState(s)
	}
	if cpu.invTrack {
		cpu.inversionResample()
	}
	return c
}

// checkPreemptOn re-examines the preemption decision visible from core c:
// the shared decision across all cores in a multi-core global domain, core
// c's own queue otherwise.
func (cpu *Processor) checkPreemptOn(c *core) {
	if cpu.domain == DomainGlobal && len(cpu.cores) > 1 {
		cpu.checkPreemptGlobal()
		return
	}
	cpu.checkPreemptCore(c)
}

// checkPreemptArrival runs the preemption check triggered by t becoming
// ready when no eligible core was idle.
func (cpu *Processor) checkPreemptArrival(t *Task) {
	if cpu.domain == DomainPartitioned {
		cpu.checkPreemptCore(&cpu.cores[t.affinity])
		return
	}
	cpu.checkPreemptOn(&cpu.cores[0])
}

// reevaluateCores re-examines every core's scheduling decision after a
// priority, deadline or preemption-mode change.
func (cpu *Processor) reevaluateCores() {
	if cpu.domain == DomainGlobal && len(cpu.cores) > 1 {
		cpu.checkPreemptGlobal()
		return
	}
	for i := range cpu.cores {
		cpu.checkPreemptCore(&cpu.cores[i])
	}
}

// checkPreemptCore requests preemption of core c's running task if the
// policy prefers some task in c's queue and the mode allows it.
func (cpu *Processor) checkPreemptCore(c *core) {
	r := c.running
	if r == nil || c.switching || r.preemptPending || !r.preemptible() {
		return
	}
	q := cpu.queueFor(c.id)
	if cpu.ordered != nil {
		// A preference order makes the cached best the decisive candidate: if
		// it does not warrant preemption, no lesser ready task does.
		if len(q.tasks) > 0 && cpu.policy.ShouldPreempt(cpu.bestOf(q), r) {
			r.requestPreempt()
		}
		return
	}
	for _, n := range q.tasks {
		if cpu.policy.ShouldPreempt(n, r) {
			r.requestPreempt()
			return
		}
	}
}

// checkPreemptGlobal runs the global-domain preemption rule: if an unclaimed
// queued task warrants preempting the least-preferred running task, that
// task — the victim on the best core to take — is asked to yield. Preemptions
// already in flight absorb queued work, so a new one is requested only when
// the queue holds more preemption-worthy tasks than pending preemptions
// (otherwise every arrival would preempt every core).
func (cpu *Processor) checkPreemptGlobal() {
	q := &cpu.queues[0]
	if len(q.tasks) == 0 {
		return
	}
	var victim *core
	pending := 0
	for i := range cpu.cores {
		c := &cpu.cores[i]
		if c.switching {
			// A switch in progress ends in an election that absorbs the best
			// eligible queued task (a claimed core's claimant is excluded from
			// the beaters below), so it counts as a preemption in flight —
			// otherwise a victim yielding within the triggering instant would
			// let the same queued task preempt a second core.
			pending++
			continue
		}
		r := c.running
		if r == nil {
			continue
		}
		if r.preemptPending {
			pending++
			continue
		}
		if !r.preemptible() {
			continue
		}
		if victim == nil || (cpu.ordered != nil && cpu.ordered.prefer(victim.running, r)) {
			victim = c
		}
	}
	if victim == nil {
		return
	}
	beaters := 0
	for _, t := range q.tasks {
		if t.claimedBy >= 0 {
			continue
		}
		if cpu.policy.ShouldPreempt(t, victim.running) {
			beaters++
		}
	}
	if beaters > pending {
		victim.running.requestPreempt()
	}
}

// armQuantum starts the time-slice timer for core c's running task.
func (cpu *Processor) armQuantum(c *core) {
	if cpu.quantum <= 0 {
		return
	}
	if c.quantumEvent == nil {
		name := cpu.name
		if c.id > 0 {
			name = fmt.Sprintf("%s.core%d", cpu.name, c.id)
		}
		c.quantumEvent = cpu.k.NewEvent(name + ".quantum")
		cc := c
		cpu.k.NewMethod(name+".quantumExpiry", func() { cpu.quantumExpired(cc) }, false, c.quantumEvent)
	}
	c.quantumEvent.NotifyIn(cpu.quantum)
}

// cancelQuantum stops core c's time-slice timer.
func (cpu *Processor) cancelQuantum(c *core) {
	if c.quantumEvent != nil {
		c.quantumEvent.Cancel()
	}
}

// quantumExpired handles the end of a time slice on core c: the running task
// is preempted if dispatchable peers are waiting, otherwise its quantum
// restarts.
func (cpu *Processor) quantumExpired(c *core) {
	r := c.running
	if r == nil || c.switching {
		return
	}
	if cpu.hasUnclaimedReady(c) && r.preemptible() {
		r.requestPreempt()
		return
	}
	cpu.armQuantum(c)
}

// overheadCtxOn snapshots the system state for an overhead formula evaluated
// on core c.
func (cpu *Processor) overheadCtxOn(c *core, t *Task) OverheadCtx {
	return OverheadCtx{CPU: cpu, Core: c.id, Task: t, ReadyCount: len(cpu.queueFor(c.id).tasks), Now: cpu.k.Now()}
}
