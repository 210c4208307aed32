package rtos

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the task lifecycle both body forms share: construction, the
// periodic release schedule and its deadline watch, job completion and abort
// bookkeeping, and the hang entry. A goroutine task (threadBody,
// NewPeriodicTask's loop, runCycle) and a continuation task (contDriver,
// engine_cont.go) call the same helpers and differ only in how they wait:
// blocking calls on a sim.Proc, or driver states on a sim.Strand.

// newTask checks the task's core placement, creates it with its TaskRun and
// TaskPreempt events and registers it with the processor. The caller adds
// what runs the body: a process or a driver strand.
func (cpu *Processor) newTask(name string, cfg TaskConfig) *Task {
	if cfg.Affinity < 0 || cfg.Affinity >= len(cpu.cores) {
		panic(fmt.Sprintf("rtos: task %q affinity %d out of range for %d-core processor %q",
			name, cfg.Affinity, len(cpu.cores), cpu.name))
	}
	if cfg.Affinity != 0 && cpu.domain == DomainGlobal {
		panic(fmt.Sprintf("rtos: task %q sets a core affinity but processor %q schedules globally", name, cpu.name))
	}
	t := &Task{
		name:      name,
		recName:   cpu.rec.Intern(name),
		cpu:       cpu,
		cfg:       cfg,
		basePrio:  cfg.Priority,
		deadline:  sim.TimeMax,
		period:    cfg.Period,
		state:     trace.StateCreated,
		affinity:  cfg.Affinity,
		lastCore:  -1,
		claimedBy: -1,
	}
	if cfg.Deadline > 0 {
		// The configured relative deadline counts from the first release.
		t.deadline = cfg.StartAt + cfg.Deadline
	}
	t.ctx = &TaskCtx{t: t}
	t.evRun = cpu.k.NewEvent(name + ".TaskRun")
	t.evPreempt = cpu.k.NewEvent(name + ".TaskPreempt")
	cpu.tasks = append(cpu.tasks, t)
	return t
}

// releaseSchedule is a periodic task's release bookkeeping: the index and
// nominal release instant of the current cycle, the relative deadline and
// the deadline watch. The schedule anchors at the configured first release,
// not at the first dispatch: a task dispatched late (higher-priority load)
// still owes its work against the nominal period boundaries.
type releaseSchedule struct {
	t           *Task
	watch       *deadlineWatch
	relDeadline sim.Time
	release     sim.Time
	cycle       int
}

// newPeriodic checks a periodic configuration, builds the task with create
// and gives it a release schedule, a deadline watch armed at the first
// deadline, and its per-task metrics.
func (cpu *Processor) newPeriodic(name string, cfg TaskConfig, create func() *Task) *Task {
	if cfg.Period <= 0 {
		panic(fmt.Sprintf("rtos: periodic task %q requires a positive period", name))
	}
	if cfg.Jitter < 0 || cfg.Jitter >= cfg.Period {
		panic("rtos: periodic release jitter must be in [0, period)")
	}
	s := &releaseSchedule{relDeadline: cfg.Deadline, release: cfg.StartAt}
	if s.relDeadline == 0 {
		s.relDeadline = cfg.Period
	}
	s.watch = newDeadlineWatch(cpu, name, cfg.StartAt+s.relDeadline)
	t := create()
	s.t, s.watch.tsk, t.sched = t, t, s
	t.registerTaskMetrics(cpu.sys.Metrics)
	return t
}

// open starts the current cycle: a fresh absolute deadline counted from the
// nominal release, and the deadline watch armed at it. It returns how long
// the task sleeps before the cycle body runs — the part of the cycle's
// release jitter still ahead — or zero. The deadline stays nominal.
func (s *releaseSchedule) open() sim.Time {
	t := s.t
	deadline := s.release + s.relDeadline
	t.ctx.SetDeadline(deadline)
	now := t.cpu.k.Now()
	s.watch.armCycle(s.cycle, deadline, now)
	if j := t.cpu.sys.releaseJitterFor(t.name, s.cycle, t.cfg.Jitter); j > 0 && s.release+j > now {
		return s.release + j - now
	}
	return 0
}

// close ends the current cycle, completed or aborted, and advances the
// schedule to the next one. It returns how long the task sleeps until that
// release, or zero to release it at once (a restart, or an overrun past the
// nominal release).
func (s *releaseSchedule) close(aborted bool) sim.Time {
	t := s.t
	now := t.cpu.k.Now()
	s.watch.completed = s.cycle
	s.cycle++
	if t.restartPending {
		// Restart recovery (completeJob drops a late request, so only an
		// aborted cycle gets here): re-release immediately with a fresh
		// deadline counted from now.
		t.restartPending = false
		s.release = now
		return 0
	}
	if !aborted {
		t.observeResponse(now - s.release)
	}
	s.release += t.cfg.Period
	if t.skipNext {
		// Skip-next recovery: surrender one release to catch up.
		t.skipNext = false
		s.release += t.cfg.Period
	}
	if s.release > now {
		return s.release - now
	}
	s.release = now // overrun: re-release immediately
	return 0
}

// completeJob closes a job that ran to its end. An abort, restart or hang
// requested too late to reach a checkpoint is stale and dropped.
func (t *Task) completeJob() {
	t.inJob = false
	t.hangPending = false
	t.abortPending = false
	t.restartPending = false
	t.abortReason = ""
	t.completedCycles++
}

// landAbort closes a job abandoned at an abort checkpoint and records the
// recovery: a periodic task loses the current cycle (the caller then closes
// it in the release schedule), a one-shot task terminates.
func (t *Task) landAbort() {
	t.inJob = false
	t.hangPending = false // a hang that never reached a checkpoint is moot
	label := t.abortReason
	if label == "" {
		label = "abort"
	}
	t.abortReason = ""
	detail := "one-shot job aborted; task terminates"
	if t.sched != nil {
		detail = fmt.Sprintf("cycle %d aborted", t.sched.cycle)
	}
	t.cpu.rec.Fault(trace.RecoveryTaken, t.name, label, detail)
	t.abortedCycles++
}

// hang enters the pending injected hang at an Execute checkpoint: record
// the fault, mark the task hung and arm the finite-hang wake. The caller
// then parks the task in Waiting with its remaining duration preserved.
func (t *Task) hang() {
	t.hangPending = false
	d := t.hangDur
	detail := "stuck forever (watchdog recovery required)"
	if d > 0 {
		detail = fmt.Sprintf("stuck for %v", d)
	}
	t.cpu.rec.Fault(trace.FaultInjected, t.name, "hang", detail)
	t.hung = true
	if d > 0 {
		t.armDelayWake()
		t.delayEvent.NotifyIn(d)
	}
}

// deadlineWatch is a periodic task's deadline watchdog: a kernel method
// armed at each cycle's absolute deadline instant — not at completion — so a
// miss is reported even for a cycle that never completes (a starved task).
type deadlineWatch struct {
	cpu  *Processor
	name string
	tsk  *Task // assigned after task creation; the method only runs during simulation

	dlEvent       *sim.Event
	completed     int
	armed         int
	reported      int // latest cycle whose miss was reported
	grace         bool
	armedDeadline sim.Time
}

// newDeadlineWatch creates the watch and arms the first cycle at
// elaboration: a task so starved that it never even dispatches must still
// have its deadline miss detected.
func newDeadlineWatch(cpu *Processor, name string, firstDeadline sim.Time) *deadlineWatch {
	w := &deadlineWatch{cpu: cpu, name: name, completed: -1, armed: -1, reported: -1}
	w.dlEvent = cpu.k.NewEvent(name + ".deadlineWatch")
	cpu.k.NewMethod(name+".deadlineCheck", w.check, false, w.dlEvent)
	w.armed, w.armedDeadline = 0, firstDeadline
	w.dlEvent.NotifyAt(firstDeadline)
	return w
}

func (w *deadlineWatch) check() {
	if w.completed >= w.armed {
		w.grace = false
		return
	}
	// Completing exactly at the deadline instant is a meet: give the
	// task's same-instant completion one delta cycle to land before
	// declaring the miss.
	if !w.grace {
		w.grace = true
		w.dlEvent.NotifyDelta()
		return
	}
	w.grace = false
	w.miss(w.armed, w.armedDeadline)
}

// miss reports cycle's deadline miss and hands it to the task's miss
// policy.
func (w *deadlineWatch) miss(cycle int, deadline sim.Time) {
	w.reported = cycle
	w.cpu.sys.Constraints.report(w.name, deadline, w.cpu.k.Now())
	w.tsk.deadlineMissed(cycle, deadline)
}

// armCycle re-arms the watch for one cycle (or reports the miss immediately
// when the task was dispatched past its deadline already). The first cycle
// is armed at elaboration, so a task starved past that deadline had the
// miss reported by check already; it is not reported again.
func (w *deadlineWatch) armCycle(cycle int, deadline, now sim.Time) {
	w.armed, w.armedDeadline = cycle, deadline
	if deadline < now {
		// Dispatched after the deadline already passed: immediate miss, no
		// point arming the watchdog.
		if cycle != w.reported {
			w.miss(cycle, deadline)
		}
	} else {
		w.dlEvent.Cancel()
		w.dlEvent.NotifyAt(deadline)
	}
}
