package rtos_test

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// countFaults counts recorded fault-subsystem events of one kind and label
// (empty label matches any).
func countFaults(rec *trace.Recorder, kind trace.FaultEventKind, label string) int {
	n := 0
	for f := range rec.FaultEvents() {
		if f.Kind == kind && (label == "" || f.Label == label) {
			n++
		}
	}
	return n
}

func TestWCETOverrunInflatesExecution(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		var end sim.Time
		task := cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
			c.Execute(10 * sim.Us)
			end = c.Now()
		})
		task.InjectWCETOverrun(rtos.WCETOverrun{Factor: 2, Extra: 5 * sim.Us})
		sys.Run()
		if want := 25 * sim.Us; end != want {
			t.Errorf("engine %v: inflated execution ended at %v, want %v", eng, end, want)
		}
		if task.CPUTime() != 25*sim.Us {
			t.Errorf("engine %v: cpu time %v, want 25us", eng, task.CPUTime())
		}
		if n := countFaults(sys.Rec, trace.FaultInjected, "wcet-overrun"); n != 1 {
			t.Errorf("engine %v: %d wcet-overrun events, want 1", eng, n)
		}
		sys.Shutdown()
	}
}

func TestWCETOverrunWindowAndValidation(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	task := cpu.NewPeriodicTask("p", rtos.TaskConfig{Period: 100 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
		c.Execute(10 * sim.Us)
	})
	// Active only during the second and third cycles.
	task.InjectWCETOverrun(rtos.WCETOverrun{Factor: 3, After: 100 * sim.Us, Until: 300 * sim.Us})
	sys.RunUntil(500 * sim.Us)
	sys.Shutdown()
	if n := countFaults(sys.Rec, trace.FaultInjected, "wcet-overrun"); n != 2 {
		t.Errorf("%d wcet-overrun events, want 2 (window [100us,300us))", n)
	}

	for _, bad := range []rtos.WCETOverrun{
		{Factor: 0.5},
		{Factor: 2, Extra: -sim.Us},
		{},                            // no effect
		{Factor: 2, Probability: 1.5}, // probability out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InjectWCETOverrun(%+v) did not panic", bad)
				}
			}()
			task.InjectWCETOverrun(bad)
		}()
	}
}

func TestCrashAbortsPeriodicCycle(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		task := cpu.NewPeriodicTask("p", rtos.TaskConfig{Period: 100 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
			c.Execute(50 * sim.Us)
		})
		task.InjectCrashAt(120 * sim.Us) // cycle 1 is mid-Execute
		sys.RunUntil(500 * sim.Us)
		sys.Shutdown()
		if task.AbortedCycles() != 1 {
			t.Errorf("engine %v: aborted cycles %d, want 1", eng, task.AbortedCycles())
		}
		if task.CompletedCycles() != 4 { // cycles 0, 2, 3, 4
			t.Errorf("engine %v: completed cycles %d, want 4", eng, task.CompletedCycles())
		}
		if n := countFaults(sys.Rec, trace.RecoveryTaken, "crash-abort"); n != 1 {
			t.Errorf("engine %v: %d crash-abort recoveries, want 1", eng, n)
		}
	}
}

func TestCrashWhileIdleIsNoOp(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	task := cpu.NewPeriodicTask("p", rtos.TaskConfig{Period: 100 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
		c.Execute(10 * sim.Us)
	})
	task.InjectCrashAt(50 * sim.Us) // between cycles
	sys.RunUntil(300 * sim.Us)
	sys.Shutdown()
	if task.AbortedCycles() != 0 {
		t.Errorf("aborted cycles %d, want 0", task.AbortedCycles())
	}
	found := false
	for f := range sys.Rec.FaultEvents() {
		if f.Label == "crash" && strings.Contains(f.Detail, "idle") {
			found = true
		}
	}
	if !found {
		t.Error("idle crash was not recorded as a no-op fault event")
	}
}

func TestCrashTerminatesOneShotTask(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	finished := false
	task := cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		c.Execute(100 * sim.Us)
		finished = true
	})
	task.InjectCrashAt(50 * sim.Us)
	sys.Run()
	sys.Shutdown()
	if finished {
		t.Error("crashed one-shot task ran to completion")
	}
	if task.State() != rtos.StateTerminated {
		t.Errorf("crashed one-shot task in state %v, want terminated", task.State())
	}
	if task.AbortedCycles() != 1 || task.CompletedCycles() != 0 {
		t.Errorf("aborted/completed = %d/%d, want 1/0", task.AbortedCycles(), task.CompletedCycles())
	}
}

func TestFiniteHangPreservesRemainingWork(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		var end sim.Time
		task := cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
			c.Execute(100 * sim.Us)
			end = c.Now()
		})
		task.InjectHangAt(30*sim.Us, 50*sim.Us)
		sys.Run()
		sys.Shutdown()
		// 30us of work, 50us stuck, 70us of work: done at 150us.
		if want := 150 * sim.Us; end != want {
			t.Errorf("engine %v: hung task finished at %v, want %v", eng, end, want)
		}
		if task.CPUTime() != 100*sim.Us {
			t.Errorf("engine %v: cpu time %v, want 100us", eng, task.CPUTime())
		}
		if n := countFaults(sys.Rec, trace.FaultInjected, "hang"); n != 1 {
			t.Errorf("engine %v: %d hang events, want 1", eng, n)
		}
	}
}

func TestForeverHangIsDeadlockWithoutWatchdog(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	task := cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		c.Execute(100 * sim.Us)
	})
	task.InjectHangAt(30*sim.Us, 0)
	rep, err := sys.RunChecked(sim.TimeMax)
	sys.Shutdown()
	if rep.Reason != sim.FinishDeadlock {
		t.Fatalf("finish reason %v, want deadlock", rep.Reason)
	}
	if err == nil || !strings.Contains(err.Error(), `"t"`) && !strings.Contains(err.Error(), "t waiting") {
		t.Fatalf("deadlock error does not name the hung task: %v", err)
	}
}

func TestWatchdogRestartsHungTask(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		var wd *rtos.Watchdog
		task := cpu.NewPeriodicTask("p", rtos.TaskConfig{Period: 100 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
			wd.Kick()
			c.Execute(20 * sim.Us)
		})
		wd = cpu.NewWatchdog("wd", 150*sim.Us, task)
		task.InjectHangAt(210*sim.Us, 0) // cycle 2, stuck forever
		sys.RunUntil(800 * sim.Us)
		sys.Shutdown()
		// Last kick at 200us; the watchdog fires at 350us and restarts the
		// task, which then resumes its periodic service.
		if wd.Fired() == 0 {
			t.Fatalf("engine %v: watchdog never fired", eng)
		}
		if task.AbortedCycles() != 1 {
			t.Errorf("engine %v: aborted cycles %d, want 1", eng, task.AbortedCycles())
		}
		if task.CompletedCycles() < 4 {
			t.Errorf("engine %v: only %d cycles completed after restart", eng, task.CompletedCycles())
		}
		if n := countFaults(sys.Rec, trace.WatchdogFired, ""); n == 0 {
			t.Errorf("engine %v: no watchdog-fired trace event", eng)
		}
		if n := countFaults(sys.Rec, trace.RecoveryTaken, "watchdog-restart"); n != 1 {
			t.Errorf("engine %v: %d watchdog-restart recoveries, want 1", eng, n)
		}
	}
}

func TestWatchdogKickPreventsFiring(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	var wd *rtos.Watchdog
	task := cpu.NewPeriodicTask("p", rtos.TaskConfig{Period: 100 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
		wd.Kick()
		c.Execute(10 * sim.Us)
	})
	wd = cpu.NewWatchdog("wd", 150*sim.Us, task)
	sys.RunUntil(sim.Ms)
	sys.Shutdown()
	if wd.Fired() != 0 {
		t.Errorf("watchdog fired %d times despite regular kicks", wd.Fired())
	}
	if wd.Kicks() != 11 { // cycles released at 0, 100us, ..., 1ms
		t.Errorf("kicks %d, want 11", wd.Kicks())
	}
}

func TestMissPolicyAbortJob(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		task := cpu.NewPeriodicTask("p", rtos.TaskConfig{
			Period: 100 * sim.Us,
			OnMiss: rtos.MissAbortJob,
		}, func(c *rtos.TaskCtx, cycle int) {
			c.Execute(150 * sim.Us) // always overruns the deadline
		})
		sys.RunUntil(500 * sim.Us)
		sys.Shutdown()
		if task.CompletedCycles() != 0 {
			t.Errorf("engine %v: %d cycles completed, want 0", eng, task.CompletedCycles())
		}
		if task.AbortedCycles() < 4 {
			t.Errorf("engine %v: only %d cycles aborted", eng, task.AbortedCycles())
		}
		if n := countFaults(sys.Rec, trace.RecoveryTaken, "miss-abort"); n < 4 {
			t.Errorf("engine %v: %d miss-abort recoveries, want >= 4", eng, n)
		}
		if len(sys.Constraints.Violations()) < 4 {
			t.Errorf("engine %v: %d violations recorded", eng, len(sys.Constraints.Violations()))
		}
	}
}

func TestMissPolicySkipNextRelease(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	var starts []sim.Time
	cpu.NewPeriodicTask("p", rtos.TaskConfig{
		Period: 100 * sim.Us,
		OnMiss: rtos.MissSkipNextRelease,
	}, func(c *rtos.TaskCtx, cycle int) {
		starts = append(starts, c.Now())
		c.Execute(120 * sim.Us) // misses every deadline by 20us
	})
	sys.RunUntil(sim.Ms)
	sys.Shutdown()
	// Every cycle misses and surrenders the following release: cycles start
	// every two periods (0, 200us, 400us, ...).
	for i, at := range starts {
		if want := sim.Time(i) * 200 * sim.Us; at != want {
			t.Fatalf("cycle %d released at %v, want %v (skip-next cadence)", i, at, want)
		}
	}
	if n := countFaults(sys.Rec, trace.RecoveryTaken, "miss-skip"); n == 0 {
		t.Error("no miss-skip recovery events recorded")
	}
}

func TestMissPolicyRestartTask(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		task := cpu.NewPeriodicTask("p", rtos.TaskConfig{
			Period: 100 * sim.Us,
			OnMiss: rtos.MissRestartTask,
		}, func(c *rtos.TaskCtx, cycle int) {
			c.Execute(10 * sim.Us)
		})
		// Transient overload: triple execution time during [0, 250us).
		task.InjectWCETOverrun(rtos.WCETOverrun{Factor: 15, Until: 250 * sim.Us})
		sys.RunUntil(sim.Ms)
		sys.Shutdown()
		if task.AbortedCycles() == 0 {
			t.Errorf("engine %v: overloaded task never restarted", eng)
		}
		if task.CompletedCycles() < 5 {
			t.Errorf("engine %v: only %d cycles completed after the overload cleared",
				eng, task.CompletedCycles())
		}
		if n := countFaults(sys.Rec, trace.RecoveryTaken, "miss-restart"); n == 0 {
			t.Errorf("engine %v: no miss-restart recovery events", eng)
		}
	}
}

func TestOnMissHookOverridesPolicy(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	var infos []rtos.MissInfo
	task := cpu.NewPeriodicTask("p", rtos.TaskConfig{
		Period: 100 * sim.Us,
		OnMiss: rtos.MissAbortJob, // overridden by the hook
		OnMissHook: func(mi rtos.MissInfo) rtos.MissPolicy {
			infos = append(infos, mi)
			return rtos.MissContinue
		},
	}, func(c *rtos.TaskCtx, cycle int) {
		c.Execute(120 * sim.Us)
	})
	sys.RunUntil(500 * sim.Us)
	sys.Shutdown()
	if task.AbortedCycles() != 0 {
		t.Errorf("hook returned MissContinue but %d cycles aborted", task.AbortedCycles())
	}
	if len(infos) == 0 {
		t.Fatal("miss hook never invoked")
	}
	if infos[0].Task != "p" || infos[0].Cycle != 0 || infos[0].Deadline != 100*sim.Us {
		t.Errorf("first miss info %+v, want task p cycle 0 deadline 100us", infos[0])
	}
}

func TestIRQDropFault(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	served := 0
	irq := cpu.Interrupts().NewIRQ("rx", 1, 0, func(c *rtos.ISRCtx) {
		served++
		c.Execute(sim.Us)
	})
	irq.InjectDrop(1, 7) // lose every raise
	sys.NewHWTask("dev", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		for i := 0; i < 5; i++ {
			c.Wait(100 * sim.Us)
			irq.Raise()
		}
	})
	sys.Run()
	sys.Shutdown()
	if served != 0 || irq.Serviced() != 0 {
		t.Errorf("ISR ran %d times despite full drop", served)
	}
	if irq.Dropped() != 5 {
		t.Errorf("dropped %d raises, want 5", irq.Dropped())
	}
	if n := countFaults(sys.Rec, trace.FaultInjected, "irq-drop"); n != 5 {
		t.Errorf("%d irq-drop events, want 5", n)
	}
}

func TestIRQPartialDropIsDeterministic(t *testing.T) {
	run := func() uint64 {
		sys := rtos.NewUntracedSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{})
		irq := cpu.Interrupts().NewIRQ("rx", 1, 0, func(c *rtos.ISRCtx) { c.Execute(sim.Us) })
		irq.InjectDrop(0.5, 99)
		sys.NewHWTask("dev", rtos.HWConfig{}, func(c *rtos.HWCtx) {
			for i := 0; i < 40; i++ {
				c.Wait(100 * sim.Us)
				irq.Raise()
			}
		})
		sys.Run()
		sys.Shutdown()
		return irq.Dropped()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed dropped %d then %d raises", a, b)
	}
	if a == 0 || a == 40 {
		t.Errorf("drop probability 0.5 dropped %d/40 raises", a)
	}
}

func TestIRQLatencySpike(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	irq := cpu.Interrupts().NewIRQ("rx", 1, 10*sim.Us, func(c *rtos.ISRCtx) { c.Execute(sim.Us) })
	irq.InjectLatencySpike(50*sim.Us, 1, 3)
	sys.NewHWTask("dev", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		c.Wait(100 * sim.Us)
		irq.Raise()
	})
	sys.Run()
	sys.Shutdown()
	if irq.Serviced() != 1 {
		t.Fatalf("serviced %d, want 1", irq.Serviced())
	}
	if want := 60 * sim.Us; irq.WorstLatency() != want {
		t.Errorf("worst latency %v, want %v (10us base + 50us spike)", irq.WorstLatency(), want)
	}
	if n := countFaults(sys.Rec, trace.FaultInjected, "irq-latency"); n != 1 {
		t.Errorf("%d irq-latency events, want 1", n)
	}
}

// TestRunCheckedReportsRTOSDeadlock is the acceptance scenario: a forced
// deadlock returns a structured error naming the blocked tasks and the
// per-processor context instead of hanging or panicking.
func TestRunCheckedReportsRTOSDeadlock(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		ev := comm.NewEvent(sys.Rec, "never", comm.EventPolicy(0))
		cpu.NewTask("a", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
			c.Execute(10 * sim.Us)
			ev.Wait(c) // never signalled
		})
		cpu.NewTask("b", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
			c.Execute(20 * sim.Us)
			ev.Wait(c)
		})
		rep, err := sys.RunChecked(sim.TimeMax)
		sys.Shutdown()
		if rep.Reason != sim.FinishDeadlock || sys.FinishReason() != sim.FinishDeadlock {
			t.Fatalf("engine %v: finish reason %v, want deadlock", eng, rep.Reason)
		}
		if err == nil {
			t.Fatalf("engine %v: deadlock returned no error", eng)
		}
		msg := err.Error()
		for _, want := range []string{"deadlock", "a waiting", "b waiting", "cpu cpu"} {
			if !strings.Contains(msg, want) {
				t.Errorf("engine %v: error lacks %q:\n%s", eng, want, msg)
			}
		}
	}
}

// TestCleanSystemIsQuiescent guards the daemon marking: a system whose tasks
// all terminate must not be reported as deadlocked just because the RTOS
// scheduler thread or interrupt controller idles forever.
func TestCleanSystemIsQuiescent(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		cpu.Interrupts().NewIRQ("unused", 1, 0, func(c *rtos.ISRCtx) {})
		cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) { c.Execute(10 * sim.Us) })
		rep, err := sys.RunChecked(sim.TimeMax)
		sys.Shutdown()
		if err != nil {
			t.Fatalf("engine %v: clean run returned %v", eng, err)
		}
		if rep.Reason != sim.FinishQuiescent {
			t.Errorf("engine %v: finish reason %v, want quiescent", eng, rep.Reason)
		}
	}
}
