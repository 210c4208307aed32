package rtos_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/experiments"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// randomWorkload builds a randomized multi-task system from seed on the
// given engine and returns its trace signature after running to the horizon,
// plus the recorder for detailed diffing on divergence. The construction is
// fully deterministic in the seed, so the two engines receive byte-identical
// workloads.
func randomWorkload(seed int64, eng rtos.EngineKind, horizon sim.Time) (signature string, activations uint64, rec *trace.Recorder) {
	rng := rand.New(rand.NewSource(seed))

	nTasks := 2 + rng.Intn(5)
	nEvents := 1 + rng.Intn(3)
	overheadUnit := sim.Time(rng.Intn(4)) * sim.Us // 0..3us, zero included

	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Engine:    eng,
		Overheads: rtos.UniformOverheads(overheadUnit),
	})

	events := make([]*comm.Event, nEvents)
	for i := range events {
		events[i] = comm.NewEvent(sys.Rec, fmt.Sprintf("ev%d", i), comm.EventPolicy(rng.Intn(3)))
	}
	queue := comm.NewQueue[int](sys.Rec, "q", 1+rng.Intn(3))
	shared := comm.NewShared(sys.Rec, "sv", 0)

	type op struct {
		kind int
		arg  int
		dur  sim.Time
	}
	for i := 0; i < nTasks; i++ {
		prog := make([]op, 3+rng.Intn(6))
		for j := range prog {
			prog[j] = op{
				kind: rng.Intn(9),
				arg:  rng.Intn(nEvents),
				dur:  sim.Time(1+rng.Intn(50)) * sim.Us,
			}
		}
		loops := 1 + rng.Intn(5)
		cfg := rtos.TaskConfig{
			Priority: rng.Intn(10),
			StartAt:  sim.Time(rng.Intn(100)) * sim.Us,
		}
		cpu.NewTask(fmt.Sprintf("t%d", i), cfg, func(c *rtos.TaskCtx) {
			for l := 0; l < loops; l++ {
				for _, o := range prog {
					switch o.kind {
					case 0, 1:
						c.Execute(o.dur)
					case 2:
						c.Delay(o.dur)
					case 3:
						events[o.arg].Signal(c)
					case 4:
						events[o.arg].Wait(c)
					case 5:
						if !queue.TryPut(c, o.arg) {
							_ = queue.Get(c)
						}
					case 6:
						shared.Lock(c)
						c.Execute(o.dur / 2)
						shared.Set(c, o.arg)
						shared.Unlock(c)
					case 7:
						// Non-preemptible critical region.
						c.DisablePreemption()
						c.Execute(o.dur / 2)
						c.EnablePreemption()
					case 8:
						c.Yield()
					}
				}
			}
		})
	}
	// A hardware interrupt source stirring the pot.
	period := sim.Time(50+rng.Intn(200)) * sim.Us
	sys.NewHWTask("hwirq", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		for {
			c.Wait(period)
			events[0].Signal(c)
		}
	})

	sys.RunUntil(horizon)
	acts := sys.K.Activations()
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), acts, sys.Rec
}

// traceSignature serializes the model-relevant trace: per-task state
// segments and the non-zero overhead segments. Zero-length artefacts are
// dropped; they are bookkeeping noise that may legitimately differ in order
// between the engines within one instant.
func traceSignature(rec *trace.Recorder, end sim.Time) string {
	var b strings.Builder
	for _, task := range rec.SortedTasks() {
		fmt.Fprintf(&b, "%s:", task)
		for _, s := range rec.Segments(task, end) {
			if s.End == s.Start {
				continue
			}
			fmt.Fprintf(&b, " %v[%v..%v]", s.State, s.Start, s.End)
		}
		b.WriteByte('\n')
	}
	var ov []string
	for o := range rec.Overheads() {
		if o.End == o.Start || o.Start >= end {
			continue
		}
		ov = append(ov, fmt.Sprintf("%s %s %s %v..%v", o.CPU, o.Kind, o.Task, o.Start, o.End))
	}
	sort.Strings(ov)
	b.WriteString(strings.Join(ov, "\n"))
	// Fault-subsystem events, sorted: within one instant the engines may
	// interleave same-time injections differently, but the set must match.
	var fs []string
	for f := range rec.FaultEvents() {
		if f.At >= end {
			continue
		}
		fs = append(fs, fmt.Sprintf("%v %s %s %s", f.At, f.Kind, f.Task, f.Label))
	}
	sort.Strings(fs)
	if len(fs) > 0 {
		b.WriteByte('\n')
		b.WriteString(strings.Join(fs, "\n"))
	}
	return b.String()
}

// TestEngineEquivalence is the central property test of the reproduction:
// for randomized workloads, the threaded RTOS model (paper section 4.1) and
// the procedural RTOS model (section 4.2) must produce identical simulated
// behaviour — same task state timelines, same overhead windows — while the
// procedural engine uses fewer kernel thread switches. This is precisely the
// paper's claim that the optimization removes the RTOS thread "without
// altering the model's possibilities".
func TestEngineEquivalence(t *testing.T) {
	const horizon = 3 * sim.Ms
	fasterCount, total := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		sigP, actP, recP := randomWorkload(seed, rtos.EngineProcedural, horizon)
		sigT, actT, recT := randomWorkload(seed, rtos.EngineThreaded, horizon)
		if sigP != sigT {
			t.Fatalf("seed %d: traces diverge:\n%s", seed, trace.Diff(recP, recT, horizon, 8))
		}
		total++
		if actP < actT {
			fasterCount++
		}
	}
	// The procedural engine must need fewer activations in virtually every
	// scenario (it can only tie when no scheduling ever happens).
	if fasterCount < total*9/10 {
		t.Errorf("procedural engine had fewer activations in only %d/%d runs", fasterCount, total)
	}
}

// TestEngineEquivalenceDeterminism re-runs one seed twice per engine and
// demands byte-identical traces: simulations must be reproducible.
func TestEngineEquivalenceDeterminism(t *testing.T) {
	for _, eng := range engines() {
		a, _, _ := randomWorkload(42, eng, sim.Ms)
		b, _, _ := randomWorkload(42, eng, sim.Ms)
		if a != b {
			t.Fatalf("engine %v: two runs of the same workload differ", eng)
		}
	}
}

// faultedWorkload builds a deterministic periodic workload with every fault
// injector active (WCET overrun, crash, hang plus watchdog, IRQ drop and
// latency) and randomized miss policies, and returns its trace signature.
func faultedWorkload(seed int64, eng rtos.EngineKind, horizon sim.Time) (string, *trace.Recorder) {
	rng := rand.New(rand.NewSource(seed))
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Engine:    eng,
		Overheads: rtos.UniformOverheads(sim.Time(rng.Intn(3)) * sim.Us),
	})

	policies := []rtos.MissPolicy{
		rtos.MissContinue, rtos.MissAbortJob, rtos.MissSkipNextRelease, rtos.MissRestartTask,
	}
	nTasks := 3 + rng.Intn(3)
	tasks := make([]*rtos.Task, nTasks)
	for i := range tasks {
		execT := sim.Time(10+rng.Intn(50)) * sim.Us
		cfg := rtos.TaskConfig{
			Priority: rng.Intn(10),
			Period:   sim.Time(80+rng.Intn(150)) * sim.Us,
			OnMiss:   policies[rng.Intn(len(policies))],
		}
		tasks[i] = cpu.NewPeriodicTask(fmt.Sprintf("t%d", i), cfg, func(c *rtos.TaskCtx, cycle int) {
			c.Execute(execT)
		})
	}
	tasks[rng.Intn(nTasks)].InjectWCETOverrun(rtos.WCETOverrun{
		Factor:      2 + float64(rng.Intn(3)),
		Extra:       sim.Time(rng.Intn(20)) * sim.Us,
		Probability: 0.5,
		Seed:        seed,
		After:       sim.Time(rng.Intn(500)) * sim.Us,
	})
	tasks[rng.Intn(nTasks)].InjectCrashAt(sim.Time(50+rng.Intn(1500)) * sim.Us)
	tasks[rng.Intn(nTasks)].InjectHangAt(
		sim.Time(100+rng.Intn(1000))*sim.Us, sim.Time(30+rng.Intn(200))*sim.Us)
	guarded := tasks[rng.Intn(nTasks)]
	guarded.InjectHangAt(sim.Time(200+rng.Intn(1000))*sim.Us, 0)
	cpu.NewWatchdog("wd", sim.Time(150+rng.Intn(300))*sim.Us, guarded)

	irq := cpu.Interrupts().NewIRQ("rx", 1, sim.Time(rng.Intn(5))*sim.Us, func(c *rtos.ISRCtx) {
		c.Execute(sim.Time(1+rng.Intn(5)) * sim.Us)
	})
	irq.InjectDrop(0.3, seed)
	irq.InjectLatencySpike(sim.Time(10+rng.Intn(40))*sim.Us, 0.5, seed+1)
	period := sim.Time(60+rng.Intn(150)) * sim.Us
	sys.NewHWTask("dev", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		for {
			c.Wait(period)
			irq.Raise()
		}
	})

	sys.RunUntil(horizon)
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), sys.Rec
}

// TestEngineEquivalenceUnderFaults extends the central equivalence property
// to the fault subsystem: with all injectors active and recovery policies
// firing, both engines must still produce identical task timelines, overhead
// windows and fault/recovery event sets.
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	const horizon = 2 * sim.Ms
	for seed := int64(0); seed < 30; seed++ {
		sigP, recP := faultedWorkload(seed, rtos.EngineProcedural, horizon)
		sigT, recT := faultedWorkload(seed, rtos.EngineThreaded, horizon)
		if sigP != sigT {
			t.Fatalf("seed %d: faulted traces diverge:\n%s", seed, trace.Diff(recP, recT, horizon, 8))
		}
	}
}

var faultMatrixInjectors = []string{"wcet", "crash", "hang", "hang-watchdog", "irq-drop", "irq-latency"}

var faultMatrixPolicies = []rtos.MissPolicy{
	rtos.MissContinue, rtos.MissAbortJob, rtos.MissSkipNextRelease, rtos.MissRestartTask,
}

// faultMatrixLoad is the fault matrix's "load" task configuration. The
// "jitter" injector, outside faultMatrixInjectors, gives it release jitter
// reaching past its deadline, so misses also land while the task sleeps out
// its jitter.
func faultMatrixLoad(injector string, policy rtos.MissPolicy) rtos.TaskConfig {
	cfg := rtos.TaskConfig{Period: 100 * sim.Us, Priority: 5, OnMiss: policy}
	if injector == "jitter" {
		cfg.Deadline, cfg.Jitter = 30*sim.Us, 90*sim.Us
	}
	return cfg
}

// buildFaultMatrix runs one directed fault scenario (one injector, one miss
// policy) on the given engine and returns its trace signature and recorder.
// It is shared by the fault-matrix equivalence test and the trace-export
// golden guard.
func buildFaultMatrix(eng rtos.EngineKind, injector string, policy rtos.MissPolicy, horizon sim.Time) (string, *trace.Recorder) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng, Overheads: rtos.UniformOverheads(sim.Us)})
	load := cpu.NewPeriodicTask("load", faultMatrixLoad(injector, policy),
		func(c *rtos.TaskCtx, cycle int) { c.Execute(60 * sim.Us) })
	cpu.NewPeriodicTask("rival", rtos.TaskConfig{
		Period: 130 * sim.Us, Priority: 7,
	}, func(c *rtos.TaskCtx, cycle int) { c.Execute(30 * sim.Us) })
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

// TestEngineEquivalenceFaultMatrix runs one directed scenario per (fault
// injector, miss policy) pair on both engines and compares signatures, so
// every injector and every recovery policy is covered even if the randomized
// sweep misses a combination.
func TestEngineEquivalenceFaultMatrix(t *testing.T) {
	const horizon = sim.Ms
	for _, inj := range faultMatrixInjectors {
		for _, pol := range faultMatrixPolicies {
			sigP, recP := buildFaultMatrix(rtos.EngineProcedural, inj, pol, horizon)
			sigT, recT := buildFaultMatrix(rtos.EngineThreaded, inj, pol, horizon)
			if sigP != sigT {
				t.Fatalf("injector %s, policy %v: traces diverge:\n%s",
					inj, pol, trace.Diff(recP, recT, horizon, 8))
			}
		}
	}
}

// exportHash returns the SHA-256 of the recorder's JSON trace export.
func exportHash(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	h := sha256.New()
	if err := rec.WriteJSON(h); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceExportGoldens pins the SHA-256 of the JSON trace exports of the
// canonical scenarios, captured on the pre-optimization (seed) kernel. They
// guard the hot-path optimizations: pooling, ring buffers and the ready-queue
// cache must not change a single recorded state transition, overhead window
// or fault event on either engine. Regenerate only for an intentional model
// semantics change, never for a performance change.
//
// The fault-matrix hashes were regenerated when the interrupt controller
// became a method-driven state machine: the ISR's state-running record is now
// written in the evaluate phase before the paused task records its own
// transition at the same instant (previously after). Every timestamp, state
// window and fault event is unchanged — the diff is a permutation of
// simultaneous records only, verified record-by-record against the previous
// controller — and both engines still hash identically.
var traceExportGoldens = map[string]string{
	"figure6/procedural":      "8ea81db1c562da8a53495ed8a1c201c7db6ad0d79b463d8f2a3c4495b0a275cb",
	"figure6/threaded":        "8ea81db1c562da8a53495ed8a1c201c7db6ad0d79b463d8f2a3c4495b0a275cb",
	"figure7/procedural":      "857f86dbc4b60bb550d3faf9e75b13a026a7fad548f98fe6bdc2e6d2d362869a",
	"figure7/threaded":        "857f86dbc4b60bb550d3faf9e75b13a026a7fad548f98fe6bdc2e6d2d362869a",
	"fault-matrix/procedural": "18b28f905a1b6d1b59111ee7409812f22d18caeece0227968134316f120d3f68",
	"fault-matrix/threaded":   "18b28f905a1b6d1b59111ee7409812f22d18caeece0227968134316f120d3f68",
}

// TestTraceExportGolden is the before/after determinism guard for kernel
// optimizations: the optimized kernel must produce byte-identical trace
// exports for the Figure 6/7 and fault-matrix scenarios on both engines.
func TestTraceExportGolden(t *testing.T) {
	const horizon = sim.Ms
	got := map[string]string{}
	for _, eng := range engines() {
		r6 := experiments.RunFigure6(experiments.Figure6Config{Engine: eng})
		got["figure6/"+eng.String()] = exportHash(t, r6.Fig.Sys.Rec)
		r7 := experiments.RunFigure7(eng, experiments.Figure7Plain)
		got["figure7/"+eng.String()] = exportHash(t, r7.Sys.Rec)
		// The whole fault matrix folds into one hash per engine: every
		// per-scenario export is hashed in a fixed order.
		h := sha256.New()
		for _, inj := range faultMatrixInjectors {
			for _, pol := range faultMatrixPolicies {
				_, rec := buildFaultMatrix(eng, inj, pol, horizon)
				if err := rec.WriteJSON(h); err != nil {
					t.Fatalf("WriteJSON: %v", err)
				}
			}
		}
		got["fault-matrix/"+eng.String()] = hex.EncodeToString(h.Sum(nil))
	}
	for key, want := range traceExportGoldens {
		if got[key] != want {
			t.Errorf("%s: trace export hash changed:\n  got  %s\n  want %s", key, got[key], want)
		}
	}
}
