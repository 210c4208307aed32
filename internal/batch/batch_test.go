package batch

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// baseScenario is a three-task rate-monotonic system with a probabilistic
// WCET-overrun fault, so engine, policy, speed and seed overrides all change
// observable outcomes.
const baseScenario = `{
	"name": "sweeptest",
	"horizon": "2ms",
	"processors": [
		{"name": "cpu0", "overheads": {"scheduling": "1us", "contextSave": "1us", "contextLoad": "1us"}}
	],
	"tasks": [
		{"name": "t1", "processor": "cpu0", "priority": 3, "period": "100us", "deadline": "100us",
		 "body": [{"op": "execute", "for": "30us"}]},
		{"name": "t2", "processor": "cpu0", "priority": 2, "period": "200us",
		 "body": [{"op": "execute", "for": "50us"}]},
		{"name": "t3", "processor": "cpu0", "priority": 1, "period": "400us",
		 "body": [{"op": "execute", "for": "80us"}]}
	],
	"faults": [
		{"kind": "wcet_overrun", "task": "t3", "factor": 1.5, "probability": 0.5, "seed": 1}
	]
}`

// parse parses a test scenario.
func parse(tb testing.TB, src string) *scenario.System {
	tb.Helper()
	desc, err := scenario.Parse([]byte(src))
	if err != nil {
		tb.Fatal(err)
	}
	return desc
}

// sweep expands the spec and runs every variant against the scenario.
func sweep(tb testing.TB, spec *Spec, src string, opts Options) []Result {
	tb.Helper()
	variants, err := spec.Expand()
	if err != nil {
		tb.Fatal(err)
	}
	return spec.Run(parse(tb, src), variants, opts)
}

func testSpec() *Spec {
	return &Spec{
		Engines:  []string{"procedural", "threaded"},
		Policies: []string{"priority", "edf"},
		Speeds:   []float64{1, 2},
		Seeds:    []int64{1, 2, 3, 4},
	}
}

func TestExpandCrossProduct(t *testing.T) {
	spec := testSpec()
	variants, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 2*2*2*4 {
		t.Fatalf("expanded %d variants, want 32", len(variants))
	}
	for i, v := range variants {
		if v.Index != i {
			t.Fatalf("variant %d has Index %d", i, v.Index)
		}
	}
	// Nesting order: engines outermost, seeds innermost.
	if variants[0].Label() != "engine=procedural policy=priority speed=1 seed=1" {
		t.Fatalf("variant 0 label = %q", variants[0].Label())
	}
	if variants[1].Label() != "engine=procedural policy=priority speed=1 seed=2" {
		t.Fatalf("variant 1 label = %q", variants[1].Label())
	}
	last := variants[len(variants)-1].Label()
	if last != "engine=threaded policy=edf speed=2 seed=4" {
		t.Fatalf("last variant label = %q", last)
	}
}

func TestExpandEmptyAxesIsSingleBaseVariant(t *testing.T) {
	variants, err := (&Spec{}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 1 || variants[0].Label() != "base" {
		t.Fatalf("empty spec expanded to %v", variants)
	}
}

func TestExpandValidation(t *testing.T) {
	if _, err := (&Spec{Engines: []string{"magic"}}).Expand(); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := (&Spec{Policies: []string{"lifo"}}).Expand(); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := (&Spec{Policies: []string{"rr"}}).Expand(); err == nil {
		t.Fatal("rr without quantum accepted")
	}
	if _, err := (&Spec{Policies: []string{"rr"}, Quantum: scenario.Duration(sim.Us)}).Expand(); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Spec{Speeds: []float64{-1}}).Expand(); err == nil {
		t.Fatal("negative speed accepted")
	}
	if _, err := (&Spec{TaskEngines: []string{"fiber"}}).Expand(); err == nil {
		t.Fatal("unknown task engine accepted")
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"wat": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	s, err := ParseSpec([]byte(`{"engines": ["threaded"], "seeds": [7], "workers": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers != 3 || len(s.Engines) != 1 || len(s.Seeds) != 1 {
		t.Fatalf("parsed spec = %+v", s)
	}
}

// TestSerialParallelIdentity is the sweep engine's core guarantee: a 64-way
// parallel sweep returns exactly the results of a serial one, in the same
// order.
func TestSerialParallelIdentity(t *testing.T) {
	spec := testSpec()
	spec.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8} // 2*2*2*8 = 64 variants
	variants, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 64 {
		t.Fatalf("expanded %d variants, want 64", len(variants))
	}
	serial := spec.Run(parse(t, baseScenario), variants, Options{Workers: 1})
	parallel := spec.Run(parse(t, baseScenario), variants, Options{Workers: 8})
	for i := range serial {
		if serial[i].Err != "" {
			t.Fatalf("variant %d (%s) failed: %s", i, serial[i].Variant.Label(), serial[i].Err)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("variant %d (%s):\n  serial   %+v\n  parallel %+v",
				i, serial[i].Variant.Label(), serial[i], parallel[i])
		}
	}
	// Sanity: the axes actually differentiate outcomes — a sweep where every
	// run is identical would vacuously pass the identity check.
	if serial[0].Metrics == serial[len(serial)-1].Metrics {
		t.Fatal("first and last variants produced identical metrics; axes had no effect")
	}
}

// TestSharedBaseConcurrentSweep runs a sweep over every axis on four
// workers twice against one parsed base: every variant derives from the
// shared description concurrently, so the race detector sees any write to
// it, and the results and the base's canonical form must not move.
func TestSharedBaseConcurrentSweep(t *testing.T) {
	base := parse(t, baseScenario)
	before, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Horizon:     scenario.Duration(sim.Ms),
		Engines:     []string{"procedural", "threaded"},
		TaskEngines: []string{"goroutine", "continuation"},
		Policies:    []string{"priority", "rr"},
		Quantum:     scenario.Duration(20 * sim.Us),
		Speeds:      []float64{1, 2},
		Overheads:   []scenario.OverheadSpec{{}, {Scheduling: scenario.Duration(sim.Us)}},
		Cores:       []int{1, 2},
		Domains:     []string{"partitioned", "global"},
		Seeds:       []int64{1, 2},
	}
	variants, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	serial := spec.Run(base, variants, Options{Workers: 1})
	for range 2 {
		parallel := spec.Run(base, variants, Options{Workers: 4})
		for i := range serial {
			if serial[i].Err != "" {
				t.Fatalf("variant %s failed: %s", serial[i].Variant.Label(), serial[i].Err)
			}
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Fatalf("variant %s: serial %+v, parallel %+v", serial[i].Variant.Label(), serial[i], parallel[i])
			}
		}
	}
	if after, _ := base.CanonicalJSON(); string(after) != string(before) {
		t.Error("the sweep changed its base description")
	}
}

func TestEngineAxisPreservesTimingChangesEffort(t *testing.T) {
	spec := &Spec{Engines: []string{"procedural", "threaded"}}
	results := sweep(t, spec, baseScenario, Options{Workers: 2})
	proc, thr := results[0].Metrics, results[1].Metrics
	if proc.End != thr.End || proc.Dispatches != thr.Dispatches ||
		proc.DeadlineMisses != thr.DeadlineMisses {
		t.Fatalf("engines disagree on simulated outcome: %+v vs %+v", proc, thr)
	}
	if thr.Activations <= proc.Activations {
		t.Fatalf("threaded engine should cost more activations: %d <= %d",
			thr.Activations, proc.Activations)
	}
}

// TestTaskEngineAxis sweeps the task body form against the goroutine
// baseline: both forms must agree on every simulated outcome, with the
// continuation form strictly cheaper in kernel activations.
func TestTaskEngineAxis(t *testing.T) {
	spec := &Spec{
		TaskEngines: []string{"goroutine", "continuation"},
		Seeds:       []int64{1, 2},
	}
	results := sweep(t, spec, baseScenario, Options{Workers: 2})
	if len(results) != 4 {
		t.Fatalf("expanded %d variants, want 4", len(results))
	}
	if got := results[2].Variant.Label(); got != "taskengine=continuation seed=1" {
		t.Fatalf("variant 2 label = %q", got)
	}
	for i := 0; i < 2; i++ {
		gr, cr := results[i], results[i+2]
		if gr.Err != "" || cr.Err != "" {
			t.Fatalf("sweep failed: %q / %q", gr.Err, cr.Err)
		}
		g, c := gr.Metrics, cr.Metrics
		if g.End != c.End || g.Dispatches != c.Dispatches ||
			g.Preemptions != c.Preemptions || g.DeadlineMisses != c.DeadlineMisses ||
			g.Jobs != c.Jobs || g.ContextSwitches != c.ContextSwitches ||
			g.OverheadPs != c.OverheadPs || g.Utilization != c.Utilization {
			t.Fatalf("seed %d: body forms disagree on simulated outcome:\n  goroutine    %+v\n  continuation %+v",
				*gr.Variant.Seed, g, c)
		}
		if c.Activations >= g.Activations {
			t.Fatalf("seed %d: continuation bodies should cost fewer kernel activations: %d >= %d",
				*cr.Variant.Seed, c.Activations, g.Activations)
		}
	}
}

// TestTaskEngineAxisRevalidates checks that the task-engine axis applies to
// every body, bus send/recv included: the continuation variant of a bus
// scenario runs and reports the goroutine variant's metrics, save for the
// kernel activation count.
func TestTaskEngineAxisRevalidates(t *testing.T) {
	const busScenario = `{
		"horizon": "1ms",
		"processors": [{"name": "cpu0"}],
		"buses": [{"name": "b", "perByte": "2us", "arbitration": "1us"}],
		"channels": [{"name": "ch", "bus": "b", "capacity": 1}],
		"tasks": [
			{"name": "tx", "processor": "cpu0", "priority": 2, "repeat": 3,
			 "body": [{"op": "execute", "for": "5us"}, {"op": "send", "channel": "ch", "value": 1}]},
			{"name": "rx", "processor": "cpu0", "priority": 1, "repeat": 3,
			 "body": [{"op": "recv", "channel": "ch"}, {"op": "execute", "for": "7us"}]}
		]
	}`
	spec := &Spec{TaskEngines: []string{"goroutine", "continuation"}}
	results := sweep(t, spec, busScenario, Options{Workers: 1})
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("variant %s failed: %s", r.Variant.Label(), r.Err)
		}
	}
	g, c := results[0].Metrics, results[1].Metrics
	if g.Dispatches == 0 || g.Finish != "quiescent" {
		t.Fatalf("goroutine variant did not run the pipeline: %+v", g)
	}
	g.Activations, c.Activations = 0, 0
	if g != c {
		t.Errorf("body forms disagree:\n  goroutine    %+v\n  continuation %+v", g, c)
	}
}

func TestProgressReporting(t *testing.T) {
	spec := testSpec()
	variants, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var dones []int
	total := -1
	spec.Run(parse(t, baseScenario), variants, Options{
		Workers: 4,
		Progress: func(done, tot int) {
			mu.Lock()
			dones = append(dones, done)
			total = tot
			mu.Unlock()
		},
	})
	if total != len(variants) || len(dones) != len(variants) {
		t.Fatalf("progress called %d times with total %d, want %d", len(dones), total, len(variants))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonic", dones)
		}
	}
}

func TestFailedRunIsIsolated(t *testing.T) {
	// t2 waits on an event nobody signals: deadlock. t1 keeps the base
	// scenario's shape so the other runs still succeed.
	const deadlocked = `{
		"name": "deadlock",
		"processors": [{"name": "cpu0"}],
		"events": [{"name": "never"}],
		"tasks": [
			{"name": "t1", "processor": "cpu0", "priority": 2,
			 "body": [{"op": "execute", "for": "10us"}]},
			{"name": "t2", "processor": "cpu0", "priority": 1,
			 "body": [{"op": "wait", "event": "never"}]}
		]
	}`
	spec := &Spec{Engines: []string{"procedural", "threaded"}}
	results := sweep(t, spec, deadlocked, Options{Workers: 2})
	for _, r := range results {
		if r.Err == "" {
			t.Fatalf("variant %s: deadlock not reported", r.Variant.Label())
		}
	}
}

func TestForEach(t *testing.T) {
	// Every index must be visited exactly once, for serial and parallel
	// pools, for n below and above the worker count, and for the degenerate
	// n <= 0 cases.
	for _, workers := range []int{0, 1, 3, 16} {
		for _, n := range []int{0, -1, 1, 3, 64} {
			visits := make([]int32, 0)
			if n > 0 {
				visits = make([]int32, n)
			}
			var mu sync.Mutex
			ForEach(n, workers, func(i int) {
				mu.Lock()
				visits[i]++
				mu.Unlock()
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
	// A serial pool preserves index order.
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("serial ForEach out of order: %v", order)
	}
}

func TestSummarizeAndTable(t *testing.T) {
	spec := testSpec()
	results := sweep(t, spec, baseScenario, Options{Workers: 4})
	sum := Summarize(results)
	if sum.Runs != len(results) || sum.Failures != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.MinEnd != 2*sim.Ms || sum.MaxEnd != 2*sim.Ms {
		t.Fatalf("horizon-bounded runs should all end at 2ms: %+v", sum)
	}
	if sum.MeanUtilization <= 0 || sum.MeanUtilization > 1 {
		t.Fatalf("mean utilization %v out of range", sum.MeanUtilization)
	}
	tbl := Table(results)
	if len(tbl) == 0 || tbl[len(tbl)-1] != '\n' {
		t.Fatal("table rendering malformed")
	}
	rep := sum.Report()
	if rep == "" {
		t.Fatal("empty summary report")
	}
}

func TestForEachCtxCancel(t *testing.T) {
	// Cancelling mid-dispatch stops new work: with a serial pool that
	// cancels the context from inside the third call, indices past it are
	// never visited and ForEachCtx still returns (workers drain and exit).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited []int
	ForEachCtx(ctx, 100, 1, func(i int) {
		visited = append(visited, i)
		if i == 2 {
			cancel()
		}
	})
	if len(visited) > 4 {
		t.Fatalf("canceled ForEachCtx visited %d indices: %v", len(visited), visited)
	}
	for i, v := range visited {
		if v != i {
			t.Fatalf("serial ForEachCtx out of order: %v", visited)
		}
	}
	// An already-canceled context dispatches nothing.
	var n int32
	ForEachCtx(ctx, 8, 4, func(i int) { atomic.AddInt32(&n, 1) })
	if n != 0 {
		t.Fatalf("pre-canceled ForEachCtx ran %d calls", n)
	}
}

func TestRunContextCancel(t *testing.T) {
	// Cancelling a sweep stops in-flight dispatch promptly: the variants
	// that never ran come back with ErrCanceled instead of the sweep
	// draining the whole spec.
	spec := testSpec()
	variants, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int32
	results := spec.Run(parse(t, baseScenario), variants, Options{
		Workers: 1,
		Context: ctx,
		Progress: func(d, total int) {
			if atomic.AddInt32(&done, 1) == 3 {
				cancel()
			}
		},
	})
	if len(results) != len(variants) {
		t.Fatalf("got %d results for %d variants", len(results), len(variants))
	}
	var ok, canceled int
	for i, r := range results {
		if r.Variant.Index != variants[i].Index {
			t.Fatalf("result %d carries variant %d", i, r.Variant.Index)
		}
		switch r.Err {
		case "":
			ok++
		case ErrCanceled:
			canceled++
		default:
			t.Fatalf("variant %d failed: %s", i, r.Err)
		}
	}
	if canceled == 0 {
		t.Fatal("cancellation marked no variant as canceled")
	}
	if ok == 0 {
		t.Fatal("no variant ran before cancellation")
	}
	if ok+canceled != len(results) {
		t.Fatalf("ok %d + canceled %d != %d", ok, canceled, len(results))
	}
	// A nil context (the zero Options) still runs everything.
	all := spec.Run(parse(t, baseScenario), variants[:2], Options{Workers: 2})
	for _, r := range all {
		if r.Err != "" {
			t.Fatalf("uncanceled run failed: %s", r.Err)
		}
	}
}
