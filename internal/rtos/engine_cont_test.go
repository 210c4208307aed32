package rtos_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/metrics"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// bodyForm selects how a differential workload expresses its task bodies:
// ordinary goroutine-backed closures or continuation programs driven inline
// by the kernel's method queue.
type bodyForm int

const (
	bodyGoroutine bodyForm = iota
	bodyContinuation
)

func (f bodyForm) String() string {
	if f == bodyContinuation {
		return "continuation"
	}
	return "goroutine"
}

// cycleOp is one step of a test periodic body. A cycleBody is the single
// source of truth for both body forms of a differential workload: run
// interprets it against a goroutine task's TaskCtx, program compiles it to
// the continuation Program, op for op.
type cycleOp struct {
	kind cycleKind
	d    sim.Time
}

type cycleKind uint8

const (
	opExecute cycleKind = iota
	opDelay
	opYield
	opNoPreempt
	opPreempt
)

type cycleBody []cycleOp

func (b cycleBody) run(c *rtos.TaskCtx, _ int) {
	for _, op := range b {
		switch op.kind {
		case opExecute:
			c.Execute(op.d)
		case opDelay:
			c.Delay(op.d)
		case opYield:
			c.Yield()
		case opNoPreempt:
			c.DisablePreemption()
		case opPreempt:
			c.EnablePreemption()
		}
	}
}

func (b cycleBody) program() *rtos.Program {
	pb := rtos.BuildProgram()
	for _, op := range b {
		switch op.kind {
		case opExecute:
			pb.Compute(op.d)
		case opDelay:
			pb.WaitFor(op.d)
		case opYield:
			pb.Yield()
		case opNoPreempt:
			pb.Do(func(c *rtos.TaskCtx) { c.DisablePreemption() })
		case opPreempt:
			pb.Do(func(c *rtos.TaskCtx) { c.EnablePreemption() })
		}
	}
	return pb.Build()
}

// newPeriodicForm creates a periodic task running body in the given form.
func newPeriodicForm(cpu *rtos.Processor, form bodyForm, name string, cfg rtos.TaskConfig, body cycleBody) *rtos.Task {
	if form == bodyContinuation {
		return cpu.NewPeriodicContTask(name, cfg, body.program())
	}
	return cpu.NewPeriodicTask(name, cfg, body.run)
}

// periodicContWorkload builds a three-task periodic system over Execute,
// Delay, Yield and the preemption toggles in either body form. Both forms
// come from the same cycleBody, so both simulations interpret one source of
// truth.
func periodicContWorkload(form bodyForm, eng rtos.EngineKind, horizon sim.Time) (string, string, *trace.Recorder) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Engine:    eng,
		Overheads: rtos.UniformOverheads(sim.Us),
	})
	specs := []struct {
		name string
		cfg  rtos.TaskConfig
		body cycleBody
	}{
		{"video", rtos.TaskConfig{Period: 120 * sim.Us, Priority: 8, OnMiss: rtos.MissAbortJob},
			cycleBody{{opExecute, 30 * sim.Us}, {opDelay, 10 * sim.Us}, {opExecute, 15 * sim.Us}}},
		{"audio", rtos.TaskConfig{Period: 90 * sim.Us, Priority: 5, Jitter: 7 * sim.Us, OnMiss: rtos.MissSkipNextRelease},
			cycleBody{{opNoPreempt, 0}, {opExecute, 12 * sim.Us}, {opPreempt, 0}, {opExecute, 20 * sim.Us}}},
		{"log", rtos.TaskConfig{Period: 300 * sim.Us, Priority: 2, StartAt: 40 * sim.Us},
			cycleBody{{opExecute, 25 * sim.Us}, {opYield, 0}, {opExecute, 25 * sim.Us}}},
	}
	for _, s := range specs {
		newPeriodicForm(cpu, form, s.name, s.cfg, s.body)
	}
	sys.RunUntil(horizon)
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), "", sys.Rec
}

// TestContEquivalencePeriodic is the continuation engine's core differential
// golden: a periodic workload must produce a byte-identical trace
// whether its bodies run as goroutines or as kernel-driven continuations, on
// both RTOS engine implementations.
func TestContEquivalencePeriodic(t *testing.T) {
	const horizon = 3 * sim.Ms
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sigG, _, recG := periodicContWorkload(bodyGoroutine, eng, horizon)
			sigC, _, recC := periodicContWorkload(bodyContinuation, eng, horizon)
			if sigG != sigC {
				t.Fatalf("periodic traces diverge between body forms:\n%s",
					trace.Diff(recG, recC, horizon, 8))
			}
		})
	}
}

// commContWorkload builds a six-task communication mesh — queue
// producer/consumer, two mutex contenders, an event signaler/waiter — in
// either body form. The continuation form uses hand-built Programs with the
// blocking yield ops (LockMutex, WaitOn, PutMsg, GetMsg); the goroutine form
// uses the ordinary blocking API with the same durations and priorities.
func commContWorkload(form bodyForm, eng rtos.EngineKind, horizon sim.Time) (string, string, *trace.Recorder) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Engine:    eng,
		Overheads: rtos.UniformOverheads(2 * sim.Us),
	})
	q := comm.NewQueue[int](sys.Rec, "q", 2)
	mu := comm.NewMutex(sys.Rec, "mu")
	ev := comm.NewEvent(sys.Rec, "ev", comm.Counter)

	type spec struct {
		name string
		cfg  rtos.TaskConfig
		gor  func(*rtos.TaskCtx)
		prog *rtos.Program
	}
	specs := []spec{
		{
			name: "producer", cfg: rtos.TaskConfig{Priority: 3},
			gor: func(c *rtos.TaskCtx) {
				for {
					c.Execute(5 * sim.Us)
					q.Put(c, 1)
					c.Execute(2 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Compute(5 * sim.Us).
				Op(rtos.PutMsg(q, 1)).
				Compute(2 * sim.Us).
				End().Build(),
		},
		{
			name: "consumer", cfg: rtos.TaskConfig{Priority: 4},
			gor: func(c *rtos.TaskCtx) {
				for {
					_ = q.Get(c)
					c.Execute(7 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Op(rtos.GetMsg(q, nil)).
				Compute(7 * sim.Us).
				End().Build(),
		},
		{
			name: "locker1", cfg: rtos.TaskConfig{Priority: 6},
			gor: func(c *rtos.TaskCtx) {
				for {
					mu.Lock(c)
					c.Execute(4 * sim.Us)
					mu.Unlock(c)
					c.Delay(15 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Lock(mu).
				Compute(4 * sim.Us).
				Unlock(mu).
				WaitFor(15 * sim.Us).
				End().Build(),
		},
		{
			name: "locker2", cfg: rtos.TaskConfig{Priority: 5},
			gor: func(c *rtos.TaskCtx) {
				for {
					mu.Lock(c)
					c.Execute(6 * sim.Us)
					mu.Unlock(c)
					c.Delay(11 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Lock(mu).
				Compute(6 * sim.Us).
				Unlock(mu).
				WaitFor(11 * sim.Us).
				End().Build(),
		},
		{
			name: "signaler", cfg: rtos.TaskConfig{Priority: 2},
			gor: func(c *rtos.TaskCtx) {
				for {
					c.Execute(9 * sim.Us)
					ev.Signal(c)
					c.Delay(30 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Compute(9 * sim.Us).
				Signal(ev).
				WaitFor(30 * sim.Us).
				End().Build(),
		},
		{
			name: "waiter", cfg: rtos.TaskConfig{Priority: 7},
			gor: func(c *rtos.TaskCtx) {
				for {
					ev.Wait(c)
					c.Execute(3 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				WaitOn(ev).
				Compute(3 * sim.Us).
				End().Build(),
		},
	}
	for _, s := range specs {
		if form == bodyContinuation {
			cpu.NewContTask(s.name, s.cfg, s.prog)
		} else {
			cpu.NewTask(s.name, s.cfg, s.gor)
		}
	}
	sys.RunUntil(horizon)
	key := rtosMetricsKeyFromSys(sys)
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), key, sys.Rec
}

// rtosMetricsKeyFromSys serializes a system's rtos_* instruments, excluding
// rtos_continuation_resumes_total (the one counter that legitimately differs
// between body forms). Everything else — dispatches, preemptions, context
// switches, overhead time, per-task response histograms — must match exactly
// between a goroutine-bodied model and its continuation twin.
func rtosMetricsKeyFromSys(sys *rtos.System) string {
	var keep []metrics.MetricSnapshot
	for _, m := range sys.Metrics.Snapshot().Metrics {
		if !strings.HasPrefix(m.Name, "rtos_") || m.Name == "rtos_continuation_resumes_total" {
			continue
		}
		keep = append(keep, m)
	}
	b, _ := json.Marshal(keep)
	return string(b)
}

// TestContEquivalenceComm extends the differential golden to the blocking
// communication primitives: mutex contention, event waits and bounded-queue
// backpressure must block, wake and hand over the processor at the same
// instants in both body forms, and all rtos_* metrics (minus the
// continuation-resume counter) must agree.
func TestContEquivalenceComm(t *testing.T) {
	const horizon = 2 * sim.Ms
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sigG, metG, recG := commContWorkload(bodyGoroutine, eng, horizon)
			sigC, metC, recC := commContWorkload(bodyContinuation, eng, horizon)
			if sigG != sigC {
				t.Fatalf("comm traces diverge between body forms:\n%s",
					trace.Diff(recG, recC, horizon, 8))
			}
			if metG != metC {
				t.Errorf("rtos_* metrics diverge between body forms:\n goroutine:    %s\n continuation: %s", metG, metC)
			}
		})
	}
}

// buildContFaultMatrix is buildFaultMatrix with continuation bodies: the same
// directed fault scenarios (one injector, one miss policy) with the periodic
// bodies compiled to programs. Its signature must match the goroutine-bodied
// buildFaultMatrix run on the same engine.
func buildContFaultMatrix(eng rtos.EngineKind, injector string, policy rtos.MissPolicy, horizon sim.Time) (string, *trace.Recorder) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng, Overheads: rtos.UniformOverheads(sim.Us)})
	load := newPeriodicForm(cpu, bodyContinuation, "load", rtos.TaskConfig{
		Period: 100 * sim.Us, Priority: 5, OnMiss: policy,
	}, cycleBody{{opExecute, 60 * sim.Us}})
	newPeriodicForm(cpu, bodyContinuation, "rival", rtos.TaskConfig{
		Period: 130 * sim.Us, Priority: 7,
	}, cycleBody{{opExecute, 30 * sim.Us}})
	switch injector {
	case "wcet":
		load.InjectWCETOverrun(rtos.WCETOverrun{Factor: 2, Probability: 0.5, Seed: 11})
	case "crash":
		load.InjectCrashAt(150 * sim.Us)
		load.InjectCrashAt(480 * sim.Us)
	case "hang":
		load.InjectHangAt(220*sim.Us, 90*sim.Us)
	case "hang-watchdog":
		load.InjectHangAt(220*sim.Us, 0)
		cpu.NewWatchdog("wd", 150*sim.Us, load)
	case "irq-drop", "irq-latency":
		irq := cpu.Interrupts().NewIRQ("rx", 1, 2*sim.Us, func(c *rtos.ISRCtx) {
			c.Execute(5 * sim.Us)
		})
		if injector == "irq-drop" {
			irq.InjectDrop(0.5, 7)
		} else {
			irq.InjectLatencySpike(25*sim.Us, 0.5, 7)
		}
		sys.NewHWTask("dev", rtos.HWConfig{}, func(c *rtos.HWCtx) {
			for {
				c.Wait(70 * sim.Us)
				irq.Raise()
			}
		})
	}
	sys.RunUntil(horizon)
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), sys.Rec
}

// TestContEquivalenceFaultMatrix runs the directed fault matrix (every
// injector × every miss policy) with continuation bodies against the
// goroutine-bodied reference: WCET inflation, crash aborts, hangs, watchdog
// restarts and ISR interference must hit continuation tasks at the same
// instants with the same recovery actions.
func TestContEquivalenceFaultMatrix(t *testing.T) {
	const horizon = sim.Ms
	for _, eng := range engines() {
		for _, inj := range faultMatrixInjectors {
			for _, pol := range faultMatrixPolicies {
				sigG, recG := buildFaultMatrix(eng, inj, pol, horizon)
				sigC, recC := buildContFaultMatrix(eng, inj, pol, horizon)
				if sigG != sigC {
					t.Fatalf("engine %v, injector %s, policy %v: traces diverge:\n%s",
						eng, inj, pol, trace.Diff(recG, recC, horizon, 8))
				}
			}
		}
	}
}

// multicoreContWorkload builds a four-task, two-core workload in either body
// form, pinned (partitioned) or migrating (global).
func multicoreContWorkload(form bodyForm, domain rtos.SchedDomain, horizon sim.Time) (string, *trace.Recorder) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Cores:     2,
		Domain:    domain,
		Overheads: rtos.UniformOverheads(sim.Us),
	})
	for i := 0; i < 4; i++ {
		cfg := rtos.TaskConfig{
			Period:   sim.Time(90+20*i) * sim.Us,
			Priority: 3 + i,
		}
		if domain == rtos.DomainPartitioned {
			cfg.Affinity = i % 2
		}
		newPeriodicForm(cpu, form, fmt.Sprintf("t%d", i), cfg,
			cycleBody{{opExecute, sim.Time(25+5*i) * sim.Us}})
	}
	sys.RunUntil(horizon)
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), sys.Rec
}

// TestContEquivalenceMulticore extends the differential golden to multi-core
// scheduling: partitioned affinity and global migration must place and move
// continuation tasks across cores exactly as they do goroutine tasks.
func TestContEquivalenceMulticore(t *testing.T) {
	const horizon = 2 * sim.Ms
	for _, domain := range []rtos.SchedDomain{rtos.DomainPartitioned, rtos.DomainGlobal} {
		t.Run(fmt.Sprint(domain), func(t *testing.T) {
			sigG, recG := multicoreContWorkload(bodyGoroutine, domain, horizon)
			sigC, recC := multicoreContWorkload(bodyContinuation, domain, horizon)
			if sigG != sigC {
				t.Fatalf("multicore traces diverge between body forms:\n%s",
					trace.Diff(recG, recC, horizon, 8))
			}
		})
	}
}

// TestContMixedBodies runs goroutine and continuation tasks side by side on
// one processor: the forms must interoperate through the shared ready queue
// and communication objects. Checked against the all-goroutine reference.
func TestContMixedBodies(t *testing.T) {
	const horizon = sim.Ms
	build := func(mixed bool) (string, *trace.Recorder) {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu0", rtos.Config{Overheads: rtos.UniformOverheads(sim.Us)})
		ev := comm.NewEvent(sys.Rec, "tick", comm.Counter)
		// Producer stays a goroutine in both builds.
		cpu.NewTask("prod", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
			for {
				c.Execute(8 * sim.Us)
				ev.Signal(c)
				c.Delay(20 * sim.Us)
			}
		})
		// The consumer flips form between the builds.
		if mixed {
			cpu.NewContTask("cons", rtos.TaskConfig{Priority: 5}, rtos.BuildProgram().
				Loop(-1).WaitOn(ev).Compute(6*sim.Us).End().Build())
		} else {
			cpu.NewTask("cons", rtos.TaskConfig{Priority: 5}, func(c *rtos.TaskCtx) {
				for {
					ev.Wait(c)
					c.Execute(6 * sim.Us)
				}
			})
		}
		sys.RunUntil(horizon)
		sys.Shutdown()
		return traceSignature(sys.Rec, horizon), sys.Rec
	}
	sigG, recG := build(false)
	sigM, recM := build(true)
	if sigG != sigM {
		t.Fatalf("mixed-form traces diverge from all-goroutine reference:\n%s",
			trace.Diff(recG, recM, horizon, 8))
	}
}

// TestContOneShot checks a one-shot continuation task's lifecycle: delayed
// start, a compute-sleep-compute program, terminal state and accounting.
func TestContOneShot(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sys := rtos.NewSystem()
			cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng})
			tk := cpu.NewContTask("once", rtos.TaskConfig{Priority: 1, StartAt: 10 * sim.Us},
				rtos.BuildProgram().
					Compute(20*sim.Us).
					WaitFor(5*sim.Us).
					Compute(15*sim.Us).
					Build())
			if !tk.IsContinuation() {
				t.Fatal("IsContinuation() = false for a continuation task")
			}
			sys.Run()
			if got, want := tk.State(), trace.StateTerminated; got != want {
				t.Errorf("state = %v, want %v", got, want)
			}
			if got, want := tk.CPUTime(), 35*sim.Us; got != want {
				t.Errorf("CPUTime = %v, want %v", got, want)
			}
			if got := tk.CompletedCycles(); got != 1 {
				t.Errorf("CompletedCycles = %d, want 1", got)
			}
			if got, want := sys.K.Now(), 50*sim.Us; got != want {
				t.Errorf("finish time = %v, want %v", got, want)
			}
		})
	}
}

// TestContResumeCounter checks that continuation activity is visible on the
// rtos_continuation_resumes_total counter and that a goroutine-only system
// leaves it at zero.
func TestContResumeCounter(t *testing.T) {
	get := func(sys *rtos.System) int64 {
		m, ok := sys.Metrics.Snapshot().Get("rtos_continuation_resumes_total")
		if !ok {
			t.Fatal("rtos_continuation_resumes_total not registered")
		}
		return m.Value
	}
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	cpu.NewContTask("c", rtos.TaskConfig{}, rtos.BuildProgram().Compute(sim.Us).Build())
	sys.Run()
	if v := get(sys); v == 0 {
		t.Error("continuation task ran but resume counter is zero")
	}
	sys.Shutdown()

	sys2 := rtos.NewSystem()
	cpu2 := sys2.NewProcessor("cpu0", rtos.Config{})
	cpu2.NewTask("g", rtos.TaskConfig{}, func(c *rtos.TaskCtx) { c.Execute(sim.Us) })
	sys2.Run()
	if v := get(sys2); v != 0 {
		t.Errorf("goroutine-only system advanced the continuation counter to %d", v)
	}
	sys2.Shutdown()
}

// TestProgramLoops checks the program interpreter's loop semantics directly:
// counted loops, nesting, zero-iteration skips and builder validation.
func TestProgramLoops(t *testing.T) {
	// 2 outer × (1 compute + 3 inner computes) = 8 yields, then finish.
	p := rtos.BuildProgram().
		Loop(2).
		Compute(sim.Us).
		Loop(3).
		Compute(2 * sim.Us).
		End().
		End().
		Build()
	count := 0
	for {
		y := p.Resume(nil)
		if y.IsFinish() {
			break
		}
		count++
		if count > 100 {
			t.Fatal("program did not terminate")
		}
	}
	if count != 8 {
		t.Errorf("nested loop yielded %d ops, want 8", count)
	}
	p.Reset()
	if y := p.Resume(nil); y.IsFinish() {
		t.Error("Reset did not rewind the program")
	}

	// Zero-count loop body is skipped entirely.
	p0 := rtos.BuildProgram().Loop(0).Compute(sim.Us).End().Build()
	if y := p0.Resume(nil); !y.IsFinish() {
		t.Error("zero-count loop body ran")
	}

	defer func() {
		if recover() == nil {
			t.Error("Build with an unclosed loop did not panic")
		}
	}()
	rtos.BuildProgram().Loop(2).Compute(sim.Us).Build()
}

// TestContThreadGuards checks that the thread-only TaskCtx API panics with a
// clear message when a continuation body's inline step tries to block.
func TestContThreadGuards(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	cpu.NewContTask("bad", rtos.TaskConfig{}, rtos.BuildProgram().
		Do(func(c *rtos.TaskCtx) { c.Delay(sim.Us) }).
		Build())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Delay inside a continuation inline step did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "continuation") {
			t.Errorf("panic message %q does not mention continuations", r)
		}
	}()
	sys.Run()
}

// TestContAllocs pins the continuation engine's steady-state dispatch at zero
// heap allocations: two continuation tasks ping-ponging through counter
// events, with metrics on, must not allocate per switch round. This is the
// continuation twin of TestAllocsPerContextSwitch.
func TestContAllocs(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sys := rtos.NewUntracedSystem()
			cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
			ping := comm.NewEvent(sys.Rec, "ping", comm.Counter)
			pong := comm.NewEvent(sys.Rec, "pong", comm.Counter)
			cpu.NewContTask("a", rtos.TaskConfig{Priority: 2}, rtos.BuildProgram().
				Loop(-1).
				Compute(sim.Us).
				Signal(ping).
				WaitOn(pong).
				End().Build())
			cpu.NewContTask("b", rtos.TaskConfig{Priority: 1}, rtos.BuildProgram().
				Loop(-1).
				WaitOn(ping).
				Compute(sim.Us).
				Signal(pong).
				End().Build())
			sys.RunFor(200 * sim.Us) // steady state
			defer sys.Shutdown()
			before := cpu.Dispatches()
			if avg := testing.AllocsPerRun(100, func() { sys.RunFor(2 * sim.Us) }); avg > 0 {
				t.Errorf("%s engine allocates %.2f objects per continuation switch round, want 0", eng, avg)
			}
			if cpu.Dispatches() == before {
				t.Error("no dispatches during the measured window; the test pinned nothing")
			}
		})
	}
}

// TestContFewerActivations verifies the perf claim motivating the engine: a
// continuation-bodied system must need strictly fewer kernel thread
// activations than the same system with goroutine bodies, because every task
// switch runs inline on the method queue instead of waking a parked
// goroutine.
func TestContFewerActivations(t *testing.T) {
	run := func(form bodyForm) uint64 {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu0", rtos.Config{Overheads: rtos.UniformOverheads(sim.Us)})
		for i := 0; i < 4; i++ {
			cfg := rtos.TaskConfig{Period: sim.Time(100+30*i) * sim.Us, Priority: i + 1}
			newPeriodicForm(cpu, form, fmt.Sprintf("t%d", i), cfg,
				cycleBody{{opExecute, sim.Time(20+5*i) * sim.Us}})
		}
		sys.RunUntil(2 * sim.Ms)
		acts := sys.K.Activations()
		sys.Shutdown()
		return acts
	}
	g, c := run(bodyGoroutine), run(bodyContinuation)
	if c >= g {
		t.Errorf("continuation bodies used %d activations, goroutine bodies %d; want strictly fewer", c, g)
	}
}
