package rtos_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// counterValue reads one labeled counter out of a snapshot, summing across
// matching label sets (e.g. all kinds of rtos_overhead_time_ps_total for one
// cpu).
func counterValue(s metrics.Snapshot, name, cpuLabel string) int64 {
	var total int64
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		for _, l := range m.Labels {
			if l.Name == "cpu" && l.Value == cpuLabel {
				total += m.Value
			}
		}
	}
	return total
}

// buildOverloaded builds a 2-core global-domain system whose task set
// overloads the processor: three 90us jobs per 100us period on two cores
// forces preemptions, migrations and deadline misses within a couple of
// periods.
func buildOverloaded(eng rtos.EngineKind) (*rtos.System, *rtos.Processor) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Engine:    eng,
		Cores:     2,
		Domain:    rtos.DomainGlobal,
		Overheads: rtos.FixedOverheads(sim.Us, sim.Us, sim.Us),
	})
	for _, tc := range []struct {
		name string
		prio int
	}{{"high", 3}, {"mid", 2}, {"low", 1}} {
		cpu.NewPeriodicTask(tc.name, rtos.TaskConfig{
			Priority: tc.prio,
			Period:   100 * sim.Us,
		}, func(c *rtos.TaskCtx, cycle int) {
			c.Execute(90 * sim.Us)
		})
	}
	return sys, cpu
}

// TestMetricsTraceParity pins the contract between the metrics registry and
// the trace-derived statistics: on a run with preemptions, migrations and
// deadline misses, the registry counters must agree exactly with
// trace.Stats (context switches, preemptions), the migration record list and
// the constraint monitor's deadline violations — on both engines.
func TestMetricsTraceParity(t *testing.T) {
	for _, eng := range []rtos.EngineKind{rtos.EngineProcedural, rtos.EngineThreaded} {
		t.Run(eng.String(), func(t *testing.T) {
			sys, cpu := buildOverloaded(eng)
			sys.RunUntil(2 * sim.Ms)
			defer sys.Shutdown()

			snap := sys.MetricsSnapshot()
			st := sys.Stats(0)

			// Context switches: the trace counts context-load overhead
			// segments per processor.
			var traceSwitches, tracePreempt int
			for _, ps := range st.Processors {
				traceSwitches += ps.ContextSwitches
			}
			for _, ts := range st.Tasks {
				tracePreempt += ts.Preemptions
			}
			if got := counterValue(snap, "rtos_context_switches_total", "cpu0"); got != int64(traceSwitches) {
				t.Errorf("context switches: metrics %d, trace %d", got, traceSwitches)
			}
			if traceSwitches == 0 {
				t.Error("scenario produced no context switches; parity test is vacuous")
			}

			if got := counterValue(snap, "rtos_preemptions_total", "cpu0"); got != int64(tracePreempt) {
				t.Errorf("preemptions: metrics %d, trace %d", got, tracePreempt)
			}
			if tracePreempt == 0 {
				t.Error("scenario produced no preemptions; parity test is vacuous")
			}

			migr := len(slices.Collect(sys.Rec.Migrations()))
			if got := counterValue(snap, "rtos_migrations_total", "cpu0"); got != int64(migr) {
				t.Errorf("migrations: metrics %d, trace %d", got, migr)
			}
			if migr == 0 {
				t.Error("scenario produced no migrations; parity test is vacuous")
			}

			misses := 0
			for _, v := range sys.Constraints.Violations() {
				if strings.HasSuffix(v.Name, ".deadline") {
					misses++
				}
			}
			if got := counterValue(snap, "rtos_deadline_misses_total", "cpu0"); got != int64(misses) {
				t.Errorf("deadline misses: metrics %d, constraint monitor %d", got, misses)
			}
			if got := cpu.DeadlineMisses(); got != uint64(misses) {
				t.Errorf("DeadlineMisses accessor: %d, constraint monitor %d", got, misses)
			}
			if misses == 0 {
				t.Error("scenario produced no deadline misses; parity test is vacuous")
			}

			// Overhead time: the registry's per-kind counters must sum to the
			// trace's aggregate overhead for the processor.
			var traceOverhead sim.Time
			for _, ps := range st.Processors {
				traceOverhead += ps.Overhead
			}
			if got := cpu.OverheadTime(); got != traceOverhead {
				t.Errorf("overhead time: metrics %v, trace %v", got, traceOverhead)
			}

			// Kernel effort counters mirror the kernel's own accessors.
			if m, ok := snap.Get("sim_activations_total"); !ok || m.Value != int64(sys.K.Activations()) {
				t.Errorf("sim_activations_total = %d, kernel reports %d", m.Value, sys.K.Activations())
			}
			if m, ok := snap.Get("sim_delta_cycles_total"); !ok || m.Value != int64(sys.K.DeltaCount()) {
				t.Errorf("sim_delta_cycles_total = %d, kernel reports %d", m.Value, sys.K.DeltaCount())
			}
		})
	}
}

// TestMetricsHighWaterAndHistograms checks the non-counter instruments: the
// ready-depth high-water is positive on an overloaded system and the per-task
// response-time histograms record each completed cycle with plausible bounds.
func TestMetricsHighWaterAndHistograms(t *testing.T) {
	sys, cpu := buildOverloaded(rtos.EngineProcedural)
	sys.RunUntil(2 * sim.Ms)
	defer sys.Shutdown()

	if hw := cpu.ReadyHighWater(); hw < 1 {
		t.Errorf("ready high-water = %d, want >= 1 on an overloaded system", hw)
	}
	snap := sys.MetricsSnapshot()
	var histCount uint64
	for _, m := range snap.Metrics {
		if m.Name != "rtos_task_response_time_ps" || m.Histogram == nil {
			continue
		}
		histCount += m.Histogram.Count
		if m.Histogram.Count > 0 && m.Histogram.Min <= 0 {
			t.Errorf("response-time histogram %v has non-positive min %d", m.Labels, m.Histogram.Min)
		}
	}
	var completed uint64
	for _, task := range cpu.Tasks() {
		completed += task.CompletedCycles()
	}
	if histCount != completed {
		t.Errorf("response histograms hold %d observations, tasks completed %d cycles", histCount, completed)
	}
	if completed == 0 {
		t.Error("no completed cycles; histogram test is vacuous")
	}
}

// TestMetricsSnapshotMidRun takes a snapshot mid-run and checks it is frozen
// (later simulation does not mutate it) and monotone versus the final state.
func TestMetricsSnapshotMidRun(t *testing.T) {
	sys, _ := buildOverloaded(rtos.EngineProcedural)
	sys.RunUntil(1 * sim.Ms)
	mid := sys.MetricsSnapshot()
	midSwitches := counterValue(mid, "rtos_context_switches_total", "cpu0")
	sys.RunUntil(2 * sim.Ms)
	defer sys.Shutdown()

	if again := counterValue(mid, "rtos_context_switches_total", "cpu0"); again != midSwitches {
		t.Errorf("mid-run snapshot mutated: %d -> %d", midSwitches, again)
	}
	final := counterValue(sys.MetricsSnapshot(), "rtos_context_switches_total", "cpu0")
	if final <= midSwitches {
		t.Errorf("context switches not monotone: mid %d, final %d", midSwitches, final)
	}
}

// TestPerfettoMissMarks checks that System.WritePerfetto turns every
// deadline violation of the constraint monitor into a deadline-miss instant
// event (the smp golden scenario never misses, so this path is pinned here on
// the overloaded system).
func TestPerfettoMissMarks(t *testing.T) {
	sys, _ := buildOverloaded(rtos.EngineProcedural)
	sys.RunUntil(2 * sim.Ms)
	defer sys.Shutdown()

	var buf bytes.Buffer
	if err := sys.WritePerfetto(&buf); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	instants := 0
	for _, e := range file.TraceEvents {
		if e.Ph == "i" && strings.HasPrefix(e.Name, "deadline-miss") {
			instants++
		}
	}
	misses := 0
	for _, v := range sys.Constraints.Violations() {
		if strings.HasSuffix(v.Name, ".deadline") {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("overloaded system recorded no deadline violations")
	}
	if instants != misses {
		t.Errorf("%d deadline-miss instants in the export, %d violations recorded", instants, misses)
	}
}

// TestOverheadCoreRecorded checks that multi-core overhead segments carry the
// core they were charged on: a 2-core run must record overhead on core 1 too.
func TestOverheadCoreRecorded(t *testing.T) {
	sys, _ := buildOverloaded(rtos.EngineProcedural)
	sys.RunUntil(1 * sim.Ms)
	defer sys.Shutdown()
	seen := map[int]bool{}
	loads := 0
	for o := range sys.Rec.Overheads() {
		seen[o.Core] = true
		if o.Kind == trace.OverheadContextLoad {
			loads++
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("overhead segments seen on cores %v, want both 0 and 1", seen)
	}
	// The context-switch counter's definition is "context-load charges".
	if got := counterValue(sys.MetricsSnapshot(), "rtos_context_switches_total", "cpu0"); got != int64(loads) {
		t.Errorf("rtos_context_switches_total = %d, context-load segments = %d", got, loads)
	}
}
