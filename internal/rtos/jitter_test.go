package rtos_test

import (
	"fmt"
	"testing"

	"repro/internal/rtos"
	"repro/internal/sim"
)

func TestPeriodicJitterBounds(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	const period = 100 * sim.Us
	const jitter = 30 * sim.Us
	var starts []sim.Time
	cpu.NewPeriodicTask("j", rtos.TaskConfig{Period: period, Jitter: jitter}, func(c *rtos.TaskCtx, cycle int) {
		starts = append(starts, c.Now())
		c.Execute(10 * sim.Us)
	})
	sys.RunUntil(2 * sim.Ms)
	sys.Shutdown()
	if len(starts) < 15 {
		t.Fatalf("only %d activations", len(starts))
	}
	spread := map[sim.Time]bool{}
	for i, at := range starts {
		nominal := sim.Time(i) * period
		off := at - nominal
		if off < 0 || off > jitter {
			t.Fatalf("cycle %d activated at %v, offset %v outside [0, %v]", i, at, off, jitter)
		}
		spread[off] = true
	}
	if len(spread) < 5 {
		t.Fatalf("jitter offsets not spread: %d distinct values", len(spread))
	}
}

func TestPeriodicJitterDeterministic(t *testing.T) {
	run := func() []sim.Time {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{})
		var starts []sim.Time
		cpu.NewPeriodicTask("j", rtos.TaskConfig{Period: 100 * sim.Us, Jitter: 40 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
			starts = append(starts, c.Now())
		})
		sys.RunUntil(sim.Ms)
		sys.Shutdown()
		return starts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("activation counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPeriodicJitterValidation(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for jitter >= period")
		}
		sys.Shutdown()
	}()
	cpu.NewPeriodicTask("bad", rtos.TaskConfig{Period: sim.Us, Jitter: sim.Us}, func(*rtos.TaskCtx, int) {})
}

func TestJitterDeadlinesStayNominal(t *testing.T) {
	// Even with jitter, the deadline is measured from the nominal release:
	// a job activated late and then delayed by higher-priority load can
	// miss even though its own execution fits.
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	cpu.NewPeriodicTask("tight", rtos.TaskConfig{
		Period: 100 * sim.Us, Deadline: 40 * sim.Us, Jitter: 35 * sim.Us,
	}, func(c *rtos.TaskCtx, cycle int) {
		c.Execute(10 * sim.Us) // 35+10 > 40 whenever jitter is high
	})
	sys.RunUntil(2 * sim.Ms)
	misses := len(sys.Constraints.Violations())
	sys.Shutdown()
	if misses == 0 {
		t.Fatal("no misses despite jitter pushing past the nominal deadline")
	}
}

// TestJitterSleepAbortsOnlyTheCycle pins the abort rule at a periodic task's
// release-jitter sleep on both body forms: the sleep holds no job (a crash
// there finds the task idle), and a deadline miss while the task sleeps
// aborts that cycle only, after which the task keeps its release schedule.
func TestJitterSleepAbortsOnlyTheCycle(t *testing.T) {
	for _, form := range []bodyForm{bodyGoroutine, bodyContinuation} {
		t.Run(form.String(), func(t *testing.T) {
			sys := rtos.NewSystem()
			sys.SetReleaseJitterHook(func(string, int, sim.Time) sim.Time { return 50 * sim.Us })
			cpu := sys.NewProcessor("cpu", rtos.Config{})
			task := newPeriodicForm(cpu, form, "j", rtos.TaskConfig{
				Period: 100 * sim.Us, Deadline: 30 * sim.Us, Jitter: 90 * sim.Us, OnMiss: rtos.MissAbortJob,
			}, cycleBody{{opExecute, 10 * sim.Us}})
			task.InjectCrashAt(10 * sim.Us)  // cycle 0's jitter sleep
			task.InjectCrashAt(110 * sim.Us) // cycle 1's
			sys.RunUntil(sim.Ms)
			defer sys.Shutdown()
			var idle, aborted int
			for f := range sys.Rec.FaultEvents() {
				switch {
				case f.Label == "crash" && f.Detail == "while idle: no job to kill":
					idle++
				case f.Label == "miss-abort" && f.Detail == fmt.Sprintf("cycle %d aborted", aborted):
					aborted++
				default:
					t.Errorf("unexpected fault record %+v", f)
				}
			}
			if idle != 2 || aborted != 10 || task.AbortedCycles() != 10 || task.State() == rtos.StateTerminated {
				t.Errorf("%d idle crashes, %d cycle aborts (%d counted), state %v; want 2, 10 and a live task",
					idle, aborted, task.AbortedCycles(), task.State())
			}
		})
	}
}
