package experiments

import (
	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Figure7Mode selects the mutual-exclusion handling variant.
type Figure7Mode uint8

const (
	// Figure7Plain is the paper's Figure 7 as shown: a plain lock, so the
	// blocking situation (priority inversion) occurs.
	Figure7Plain Figure7Mode = iota
	// Figure7NoPreempt applies the paper's remedy: "this priority inversion
	// problem can be avoided by disabling preemption during access to shared
	// data".
	Figure7NoPreempt
	// Figure7Inherit applies the classical alternative, the
	// priority-inheritance protocol (extension).
	Figure7Inherit
)

func (m Figure7Mode) String() string {
	switch m {
	case Figure7Plain:
		return "plain-mutex"
	case Figure7NoPreempt:
		return "preemption-disabled"
	case Figure7Inherit:
		return "priority-inheritance"
	}
	return "invalid"
}

// Figure7Result carries the measurements of the mutual-exclusion blocking
// scenario of the paper's Figure 7, built on the Figure 6 task set extended
// with the shared variable SharedVar_1 that Function_3 reads with a timed
// (200µs) access and Function_2 reads after each Event_1.
type Figure7Result struct {
	Mode Figure7Mode
	Sys  *rtos.System

	// F3PreemptedInRead is when Function_3, holding SharedVar_1, is
	// preempted by Function_1 (annotation 1). -1 when it never happens
	// (preemption-disabled mode).
	F3PreemptedInRead sim.Time
	// F2BlockedAt is when Function_2 blocks waiting for SharedVar_1
	// (annotation 2). -1 when it never blocks.
	F2BlockedAt sim.Time
	// F3Release is when Function_3 releases SharedVar_1 (annotation 3).
	F3Release sim.Time
	// F2GotLockAt is when Function_2 finally acquires the variable.
	F2GotLockAt sim.Time
	// ResourceWait is Function_2's total time in the waiting-for-resource
	// state over the run.
	ResourceWait sim.Time
	// F1ReactionLatency is the time from the first Clk edge to Function_1
	// running — the cost the preemption-disabled remedy pays.
	F1ReactionLatency sim.Time
}

// RunFigure7 builds and simulates the Figure 7 scenario in the given mode.
func RunFigure7(engine rtos.EngineKind, mode Figure7Mode) *Figure7Result {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("Processor", rtos.Config{
		Engine:    engine,
		Policy:    rtos.PriorityPreemptive{},
		Overheads: rtos.UniformOverheads(Figure6Overhead),
	})
	clk := comm.NewEvent(sys.Rec, "Clk", comm.Fugitive)
	event1 := comm.NewEvent(sys.Rec, "Event_1", comm.Boolean)
	var sv *comm.Shared[int]
	if mode == Figure7Inherit {
		sv = comm.NewInheritShared(sys.Rec, "SharedVar_1", 0)
	} else {
		sv = comm.NewShared(sys.Rec, "SharedVar_1", 0)
	}

	res := &Figure7Result{Mode: mode, Sys: sys, F3PreemptedInRead: -1, F2BlockedAt: -1}

	cpu.NewTask("Function_1", rtos.TaskConfig{Priority: 5}, func(c *rtos.TaskCtx) {
		for {
			clk.Wait(c)
			c.Execute(100 * sim.Us)
			event1.Signal(c)
			c.Execute(50 * sim.Us)
		}
	})
	cpu.NewTask("Function_2", rtos.TaskConfig{Priority: 3}, func(c *rtos.TaskCtx) {
		for {
			event1.Wait(c)
			c.Execute(20 * sim.Us)
			sv.Lock(c)
			_ = sv.Get(c)
			c.Execute(10 * sim.Us)
			sv.Unlock(c)
			c.Execute(90 * sim.Us)
		}
	})
	cpu.NewTask("Function_3", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
		for {
			c.Execute(100 * sim.Us)
			if mode == Figure7NoPreempt {
				c.DisablePreemption()
			}
			sv.Lock(c)
			c.Execute(200 * sim.Us) // the timed read access of the figure
			_ = sv.Get(c)
			sv.Unlock(c)
			if mode == Figure7NoPreempt {
				c.EnablePreemption()
			}
		}
	})
	sys.NewHWTask("Clock", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		for {
			c.Wait(500 * sim.Us)
			clk.Signal(c)
		}
	})

	horizon := 1 * sim.Ms
	sys.RunUntil(horizon)
	sys.Shutdown()

	rec := sys.Rec
	// (1) Function_3 preempted while holding the lock: first Running->Ready
	// transition of F3 between a lock and the matching unlock.
	lockedAt, unlockedAt := lockWindow(rec, "Function_3", "SharedVar_1", 400*sim.Us)
	if p := firstStateAfter(rec, "Function_3", trace.StateReady, lockedAt, unlockedAt); lockedAt >= 0 && p >= 0 {
		res.F3PreemptedInRead = p
	}
	res.F2BlockedAt = firstStateAfter(rec, "Function_2", trace.StateWaitingResource, 0, horizon)
	res.F3Release = unlockedAt
	res.F2GotLockAt = firstAccess(rec, "Function_2", "SharedVar_1", trace.AccessLock)
	st := rec.ComputeStats(horizon)
	if f2, ok := st.TaskByName("Function_2"); ok {
		res.ResourceWait = f2.WaitingResource
	}
	edge := sim.Time(500 * sim.Us)
	res.F1ReactionLatency = firstStateAfter(rec, "Function_1", trace.StateRunning, edge, horizon) - edge
	return res
}

// lockWindow finds the lock/unlock instants of the first lock of object by
// actor at or after from.
func lockWindow(rec *trace.Recorder, actor, object string, from sim.Time) (lock, unlock sim.Time) {
	lock, unlock = -1, -1
	for a := range rec.Accesses() {
		if a.Actor != actor || a.Object != object || a.At < from {
			continue
		}
		if a.Kind == trace.AccessLock && lock < 0 {
			lock = a.At
		}
		if a.Kind == trace.AccessUnlock && lock >= 0 {
			unlock = a.At
			return lock, unlock
		}
	}
	return lock, unlock
}

// InversionResult is the E11 ablation: the classical three-task priority
// inversion (low-priority holder, middle-priority hog, high-priority
// waiter), measured under the three remedies.
type InversionResult struct {
	Mode Figure7Mode
	// HWait is how long the high-priority task waited for the lock.
	HWait sim.Time
}

// RunInversion measures the blocking time of the high-priority task in the
// classical inversion scenario for the given mode.
func RunInversion(engine rtos.EngineKind, mode Figure7Mode) InversionResult {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{Engine: engine})
	var sv *comm.Shared[int]
	if mode == Figure7Inherit {
		sv = comm.NewInheritShared(sys.Rec, "res", 0)
	} else {
		sv = comm.NewShared(sys.Rec, "res", 0)
	}
	var ask, got sim.Time
	cpu.NewTask("L", rtos.TaskConfig{Priority: 10}, func(c *rtos.TaskCtx) {
		if mode == Figure7NoPreempt {
			c.DisablePreemption()
		}
		sv.Lock(c)
		c.Execute(100 * sim.Us)
		sv.Unlock(c)
		if mode == Figure7NoPreempt {
			c.EnablePreemption()
		}
	})
	cpu.NewTask("H", rtos.TaskConfig{Priority: 30, StartAt: 10 * sim.Us}, func(c *rtos.TaskCtx) {
		ask = c.Now()
		sv.Lock(c)
		got = c.Now()
		c.Execute(10 * sim.Us)
		sv.Unlock(c)
	})
	cpu.NewTask("M", rtos.TaskConfig{Priority: 20, StartAt: 20 * sim.Us}, func(c *rtos.TaskCtx) {
		c.Execute(500 * sim.Us)
	})
	sys.Run()
	return InversionResult{Mode: mode, HWait: got - ask}
}
