package rtos_test

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestNonPreemptiveMode(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sys := rtos.NewSystem()
			cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng, NonPreemptive: true})
			var hiStart, loEnd sim.Time
			cpu.NewTask("lo", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
				c.Execute(100 * sim.Us)
				loEnd = c.Now()
			})
			cpu.NewTask("hi", rtos.TaskConfig{Priority: 9, StartAt: 10 * sim.Us}, func(c *rtos.TaskCtx) {
				hiStart = c.Now()
				c.Execute(10 * sim.Us)
			})
			sys.Run()
			// Non-preemptive: hi waits for lo to finish despite its priority.
			if loEnd != 100*sim.Us || hiStart != 100*sim.Us {
				t.Fatalf("loEnd=%v hiStart=%v, want 100us/100us", loEnd, hiStart)
			}
		})
	}
}

func TestRuntimePreemptionModeSwitch(t *testing.T) {
	// The paper, section 3.1: "the preemptive/non-preemptive mode can be
	// changed during the simulation". A HW controller turns preemption on
	// mid-run; the pending higher-priority task then preempts at the running
	// task's next preemption point.
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sys := rtos.NewSystem()
			cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng, NonPreemptive: true})
			var hiStart sim.Time
			cpu.NewTask("lo", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
				c.Execute(100 * sim.Us)
			})
			cpu.NewTask("hi", rtos.TaskConfig{Priority: 9, StartAt: 10 * sim.Us}, func(c *rtos.TaskCtx) {
				hiStart = c.Now()
				c.Execute(10 * sim.Us)
			})
			sys.NewHWTask("mode", rtos.HWConfig{}, func(c *rtos.HWCtx) {
				c.Wait(40 * sim.Us)
				cpu.SetPreemptive(true)
			})
			sys.Run()
			if hiStart != 40*sim.Us {
				t.Fatalf("hi started at %v, want 40us (at the mode switch)", hiStart)
			}
		})
	}
}

func TestDisablePreemptionCriticalRegion(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sys := rtos.NewSystem()
			cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng})
			var hiStart sim.Time
			cpu.NewTask("lo", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
				c.DisablePreemption()
				c.Execute(50 * sim.Us) // hi arrives at 10 but must wait
				c.EnablePreemption()
				c.Execute(50 * sim.Us) // preemptible again
			})
			cpu.NewTask("hi", rtos.TaskConfig{Priority: 9, StartAt: 10 * sim.Us}, func(c *rtos.TaskCtx) {
				hiStart = c.Now()
				c.Execute(5 * sim.Us)
			})
			sys.Run()
			if hiStart != 50*sim.Us {
				t.Fatalf("hi started at %v, want 50us (end of critical region)", hiStart)
			}
		})
	}
}

func TestDisablePreemptionNests(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	var hiStart sim.Time
	cpu.NewTask("lo", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		c.DisablePreemption()
		c.DisablePreemption()
		c.Execute(20 * sim.Us)
		c.EnablePreemption()
		c.Execute(20 * sim.Us) // still non-preemptible (nested)
		c.EnablePreemption()
		c.Execute(20 * sim.Us)
	})
	cpu.NewTask("hi", rtos.TaskConfig{Priority: 9, StartAt: 5 * sim.Us}, func(c *rtos.TaskCtx) {
		hiStart = c.Now()
		c.Execute(sim.Us)
	})
	sys.Run()
	if hiStart != 40*sim.Us {
		t.Fatalf("hi started at %v, want 40us", hiStart)
	}
}

func TestUnbalancedEnablePreemptionPanics(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		c.EnablePreemption()
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sys.Run()
}

func TestOverheadFormulaPerReadyTask(t *testing.T) {
	// Paper section 3.2: overhead durations may be user formulas of the
	// system state, e.g. growing with the number of ready tasks.
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Overheads: rtos.Overheads{
			Scheduling: rtos.PerReadyTask(2*sim.Us, sim.Us),
		},
	})
	for i := 0; i < 4; i++ {
		cpu.NewTask("t"+string(rune('0'+i)), rtos.TaskConfig{Priority: 4 - i}, func(c *rtos.TaskCtx) {
			c.Execute(10 * sim.Us)
		})
	}
	sys.Run()
	var schedDurations []sim.Time
	for o := range sys.Rec.Overheads() {
		if o.Kind == trace.OverheadScheduling {
			schedDurations = append(schedDurations, o.End-o.Start)
		}
	}
	// Dispatch 1: 4 ready -> 2+4 = 6us; then 3 ready -> 5us; 2 -> 4us; 1 -> 3us.
	want := []sim.Time{6 * sim.Us, 5 * sim.Us, 4 * sim.Us, 3 * sim.Us}
	if len(schedDurations) != len(want) {
		t.Fatalf("scheduling overheads = %v, want %v", schedDurations, want)
	}
	for i := range want {
		if schedDurations[i] != want[i] {
			t.Fatalf("scheduling overheads = %v, want %v", schedDurations, want)
		}
	}
}

func TestPeriodicTaskReleases(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	var starts []sim.Time
	cpu.NewPeriodicTask("p", rtos.TaskConfig{Period: 100 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
		starts = append(starts, c.Now())
		c.Execute(10 * sim.Us)
	})
	sys.RunUntil(450 * sim.Us)
	sys.Shutdown()
	want := []sim.Time{0, 100 * sim.Us, 200 * sim.Us, 300 * sim.Us, 400 * sim.Us}
	if len(starts) != len(want) {
		t.Fatalf("releases = %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("releases = %v, want %v", starts, want)
		}
	}
	if !sys.Constraints.OK() {
		t.Fatalf("unexpected violations: %v", sys.Constraints.Violations())
	}
}

func TestPeriodicTaskDeadlineMiss(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	cpu.NewPeriodicTask("overrun", rtos.TaskConfig{Period: 50 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
		if cycle == 1 {
			c.Execute(80 * sim.Us) // blows through the deadline
		} else {
			c.Execute(10 * sim.Us)
		}
	})
	sys.RunUntil(300 * sim.Us)
	sys.Shutdown()
	viol := sys.Constraints.Violations()
	if len(viol) != 1 {
		t.Fatalf("violations = %v, want exactly one", viol)
	}
	if viol[0].Name != "overrun.deadline" || viol[0].Limit != 100*sim.Us {
		t.Fatalf("violation = %+v", viol[0])
	}
}

func TestLatencyConstraint(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{Overheads: rtos.UniformOverheads(5 * sim.Us)})
	react := sys.Constraints.NewLatency("reaction", 40*sim.Us)
	irq := comm.NewEvent(sys.Rec, "irq", comm.Boolean)
	cpu.NewTask("handler", rtos.TaskConfig{Priority: 5}, func(c *rtos.TaskCtx) {
		for i := 0; i < 3; i++ {
			irq.Wait(c)
			c.Execute(10 * sim.Us)
			react.Stop()
		}
	})
	cpu.NewTask("noise", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		c.Execute(sim.Ms)
	})
	sys.NewHWTask("dev", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		for i := 0; i < 3; i++ {
			c.Wait(100 * sim.Us)
			react.Start()
			irq.Signal(c)
		}
	})
	sys.Run()
	// Each reaction: preemption switch (15us) + execute (10us) = 25us < 40us.
	if react.Count() != 3 {
		t.Fatalf("count = %d, want 3", react.Count())
	}
	if react.Worst() != 25*sim.Us {
		t.Fatalf("worst latency = %v, want 25us", react.Worst())
	}
	if !sys.Constraints.OK() {
		t.Fatalf("unexpected violations: %v", sys.Constraints.Violations())
	}
	if !strings.Contains(sys.Constraints.Report(), "reaction") {
		t.Fatal("report missing constraint")
	}
}

func TestLatencyConstraintViolation(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	m := sys.Constraints.NewLatency("tight", 5*sim.Us)
	cpu.NewTask("slowpoke", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		m.Start()
		c.Execute(50 * sim.Us)
		m.Stop()
	})
	sys.Run()
	if sys.Constraints.OK() || m.ViolationCount() != 1 {
		t.Fatalf("violation not detected: %v", sys.Constraints.Violations())
	}
	if m.Mean() != 50*sim.Us {
		t.Fatalf("mean = %v", m.Mean())
	}
}

func TestMultiProcessorIndependence(t *testing.T) {
	// Two processors schedule independently; a queue carries work between
	// them. Total throughput must reflect true parallelism.
	sys := rtos.NewSystem()
	cpu0 := sys.NewProcessor("cpu0", rtos.Config{})
	cpu1 := sys.NewProcessor("cpu1", rtos.Config{})
	q := comm.NewQueue[int](sys.Rec, "work", 4)
	var done []sim.Time
	cpu0.NewTask("producer", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		for i := 0; i < 5; i++ {
			c.Execute(10 * sim.Us)
			q.Put(c, i)
		}
	})
	cpu1.NewTask("consumer", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		for i := 0; i < 5; i++ {
			v := q.Get(c)
			if v != i {
				t.Errorf("got %d, want %d", v, i)
			}
			c.Execute(10 * sim.Us)
			done = append(done, c.Now())
		}
	})
	sys.Run()
	// Pipeline: first item done at 20us, then one every 10us.
	want := []sim.Time{20 * sim.Us, 30 * sim.Us, 40 * sim.Us, 50 * sim.Us, 60 * sim.Us}
	if len(done) != 5 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestBlockedTasksDetection(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	never := comm.NewEvent(sys.Rec, "never", comm.Boolean)
	cpu.NewTask("stuck", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		never.Wait(c)
	})
	cpu.NewTask("fine", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		c.Execute(sim.Us)
	})
	sys.Run()
	blocked := sys.BlockedTasks()
	if len(blocked) != 1 || blocked[0].Name() != "stuck" {
		t.Fatalf("blocked = %v", blocked)
	}
}

func TestTaskCounters(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	lo := cpu.NewTask("lo", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		c.Execute(100 * sim.Us)
	})
	cpu.NewTask("hi", rtos.TaskConfig{Priority: 9, StartAt: 10 * sim.Us}, func(c *rtos.TaskCtx) {
		c.Execute(10 * sim.Us)
	})
	sys.Run()
	if lo.CPUTime() != 100*sim.Us {
		t.Errorf("lo cpu time = %v, want 100us", lo.CPUTime())
	}
	if lo.Preemptions() != 1 {
		t.Errorf("lo preemptions = %d, want 1", lo.Preemptions())
	}
	if lo.Dispatches() != 2 {
		t.Errorf("lo dispatches = %d, want 2", lo.Dispatches())
	}
	if cpu.Dispatches() != 3 {
		t.Errorf("cpu dispatches = %d, want 3", cpu.Dispatches())
	}
}

func TestSetPriorityReevaluates(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sys := rtos.NewSystem()
			cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng})
			var bStart sim.Time
			cpu.NewTask("a", rtos.TaskConfig{Priority: 5}, func(c *rtos.TaskCtx) {
				c.Execute(20 * sim.Us)
				// Demote ourselves below b: b must preempt at the next
				// preemption point.
				c.SetPriority(1)
				c.Execute(50 * sim.Us)
			})
			cpu.NewTask("b", rtos.TaskConfig{Priority: 3, StartAt: 5 * sim.Us}, func(c *rtos.TaskCtx) {
				bStart = c.Now()
				c.Execute(10 * sim.Us)
			})
			sys.Run()
			if bStart != 20*sim.Us {
				t.Fatalf("b started at %v, want 20us (after a's demotion)", bStart)
			}
		})
	}
}

func TestProcessorSpeedScalesExecution(t *testing.T) {
	// The same annotated workload on a 2x processor takes half the time
	// (overheads are physical durations and do not scale).
	run := func(speed float64) sim.Time {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{
			Speed:     speed,
			Overheads: rtos.UniformOverheads(5 * sim.Us),
		})
		var end sim.Time
		cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
			c.Execute(100 * sim.Us)
			end = c.Now()
		})
		sys.Run()
		return end
	}
	if got := run(1.0); got != 110*sim.Us { // 10us dispatch + 100us
		t.Errorf("1x: end = %v, want 110us", got)
	}
	if got := run(2.0); got != 60*sim.Us { // 10us dispatch + 50us
		t.Errorf("2x: end = %v, want 60us", got)
	}
	if got := run(0.5); got != 210*sim.Us { // 10us dispatch + 200us
		t.Errorf("0.5x: end = %v, want 210us", got)
	}
}

func TestProcessorSpeedValidation(t *testing.T) {
	sys := rtos.NewSystem()
	if cpu := sys.NewProcessor("cpu", rtos.Config{}); cpu.Speed() != 1.0 {
		t.Fatalf("default speed = %v", cpu.Speed())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative speed")
		}
		sys.Shutdown()
	}()
	sys.NewProcessor("bad", rtos.Config{Speed: -1})
}

func TestHWTaskNotScheduled(t *testing.T) {
	// Hardware tasks run truly in parallel with software: a HW burst does
	// not consume CPU time.
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	var swEnd, hwEnd sim.Time
	cpu.NewTask("sw", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		c.Execute(100 * sim.Us)
		swEnd = c.Now()
	})
	sys.NewHWTask("hw", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		c.Wait(100 * sim.Us)
		hwEnd = c.Now()
	})
	sys.Run()
	if swEnd != 100*sim.Us || hwEnd != 100*sim.Us {
		t.Fatalf("swEnd=%v hwEnd=%v, want both 100us (parallel)", swEnd, hwEnd)
	}
}

func TestExecuteOutsideRunningPanics(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	var ctx *rtos.TaskCtx
	cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		ctx = c
		c.Execute(sim.Us)
	})
	sys.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Execute on a terminated task")
		}
	}()
	ctx.Execute(sim.Us)
}

func TestConfigValidation(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("nil behaviour", func() { cpu.NewTask("x", rtos.TaskConfig{}, nil) })
	mustPanic("periodic without period", func() {
		cpu.NewPeriodicTask("x", rtos.TaskConfig{}, func(*rtos.TaskCtx, int) {})
	})
	mustPanic("nil periodic body", func() {
		cpu.NewPeriodicTask("x", rtos.TaskConfig{Period: sim.Us}, nil)
	})
	mustPanic("bad quantum", func() {
		sys.NewProcessor("cpu1", rtos.Config{Policy: rtos.RoundRobin{}})
	})
	mustPanic("nil hw behaviour", func() { sys.NewHWTask("x", rtos.HWConfig{}, nil) })
	mustPanic("bad constraint", func() { sys.Constraints.NewLatency("x", 0) })
	mustPanic("negative fixed overhead", func() { rtos.Fixed(-1) })
	sys.Shutdown()
}

// A periodic task starved past its first deadline has that miss reported
// once, at the deadline: its late first dispatch must not report cycle 0
// again, nor consult the miss policy twice. Both task engines.
func TestStarvedFirstCycleMissReportedOnce(t *testing.T) {
	for _, form := range []bodyForm{bodyGoroutine, bodyContinuation} {
		t.Run(form.String(), func(t *testing.T) {
			sys := rtos.NewSystem()
			cpu := sys.NewProcessor("cpu", rtos.Config{})
			cpu.NewTask("hog", rtos.TaskConfig{Priority: 10}, func(c *rtos.TaskCtx) { c.Execute(100 * sim.Us) })
			var policyCalls []int
			newPeriodicForm(cpu, form, "victim", rtos.TaskConfig{
				Priority: 1, Period: 200 * sim.Us, Deadline: 30 * sim.Us,
				OnMissHook: func(m rtos.MissInfo) rtos.MissPolicy {
					policyCalls = append(policyCalls, m.Cycle)
					return rtos.MissContinue
				},
			}, cycleBody{{opExecute, 10 * sim.Us}})
			sys.RunUntil(150 * sim.Us)
			defer sys.Shutdown()
			var misses []rtos.Violation
			for _, v := range sys.Constraints.Violations() {
				if v.Task == "victim" {
					misses = append(misses, v)
				}
			}
			if len(misses) != 1 || misses[0].Limit != 30*sim.Us || misses[0].At != 30*sim.Us {
				t.Errorf("victim misses = %+v, want one for cycle 0 (deadline 30us) detected at 30us", misses)
			}
			if len(policyCalls) != 1 || policyCalls[0] != 0 {
				t.Errorf("miss policy consulted for cycles %v, want [0]", policyCalls)
			}
		})
	}
}
