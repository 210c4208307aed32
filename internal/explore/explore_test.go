package explore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newEngine parses a scenario and prepares its exploration.
func newEngine(tb testing.TB, data []byte) *Engine {
	tb.Helper()
	desc, err := scenario.Parse(data)
	if err != nil {
		tb.Fatal(err)
	}
	return New(desc)
}

func readScenario(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runScenario simulates one scenario on the given engine, optionally with an
// identity chooser installed at both choice points, and returns the
// chronology and the equivalence signature.
func runScenario(t *testing.T, base []byte, engine string, withChooser bool) (string, string) {
	t.Helper()
	desc, err := scenario.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	if engine != "" {
		for i := range desc.Processors {
			desc.Processors[i].Engine = engine
		}
	}
	built, err := desc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if withChooser {
		ch := newChooser(newFootprints(desc), 3, 24, nil, nil, nil)
		built.Sys.K.SetTimedPermuter(ch)
		built.Sys.SetReleaseJitterHook(ch.jitterFor)
	}
	if _, err := built.RunChecked(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return built.Sys.Chronology(), trace.Signature(built.Sys.Rec, built.Sys.Now())
}

// TestIdentityChooserMatchesSeedRuns is the identity-permutation
// differential: with the chooser installed but every decision at its
// default, the run must be byte-identical (chronology and signature) to the
// plain seed run — on both engines, over the golden-pinned scenarios.
func TestIdentityChooserMatchesSeedRuns(t *testing.T) {
	scenarios := []string{"figure6.json", "figure7.json", "smp.json", "faults.json"}
	for _, name := range scenarios {
		base := readScenario(t, name)
		for _, engine := range []string{"procedural", "threaded"} {
			chron, sig := runScenario(t, base, engine, false)
			chronC, sigC := runScenario(t, base, engine, true)
			if chron != chronC {
				t.Errorf("%s/%s: identity chooser changed the chronology", name, engine)
			}
			if sig != sigC {
				t.Errorf("%s/%s: identity chooser changed the signature", name, engine)
			}
		}
	}
}

// TestExploreFindsSeededWatchdogViolation runs the full engine on the
// fault-injection scenario: release jitter within the declared bound can
// starve the watchdog, and the exploration must find that, minimize the
// trace, and verify its replay.
func TestExploreFindsSeededWatchdogViolation(t *testing.T) {
	eng := newEngine(t, readScenario(t, "faults.json"))
	eng.Cfg.MaxRuns = 64
	eng.Cfg.Workers = 2
	sum, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) == 0 {
		t.Fatal("no violation found")
	}
	v := sum.Violations[0]
	if v.Kind != "watchdog" || v.Subject != "wd" {
		t.Fatalf("violation = %+v, want watchdog wd", v)
	}
	if !v.Replayed {
		t.Fatalf("violation replay not verified: %+v", v)
	}

	// The emitted trace must decode and deterministically reproduce the
	// violation, including under the scenario's fault injection.
	tr, err := Decode(v.Trace)
	if err != nil {
		t.Fatalf("emitted trace does not decode: %v", err)
	}
	r1, v1, err := eng.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	r2, v2, err := eng.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == nil || v2 == nil || v1.Kind != "watchdog" || v2.Kind != "watchdog" {
		t.Fatalf("replays did not reproduce the violation: %+v, %+v", v1, v2)
	}
	if r1.Trace.trimmed().Encode() != r2.Trace.trimmed().Encode() {
		t.Fatal("two replays produced different decision logs")
	}
	if r1.Sig != r2.Sig {
		t.Fatal("two replays produced different trace signatures")
	}
}

// TestReplayRecordedTraces replays counterexample traces recorded by an
// earlier build. Replay decodes a trace against the current decision space,
// so a change to which engine exploration runs tasks on would break stored
// traces: each must still reproduce the same violation with the same detail.
func TestReplayRecordedTraces(t *testing.T) {
	for _, c := range []struct {
		scenario, trace, kind, detail string
	}{
		{"faults.json",
			"xt1:DgKm4PiWBQAB7enLnQIAAqfYlcoNAAGNlYyJDAACpPC-sAQAAaCw-6MHAAGanOrqBgACpejb4wwAAZnrxeQJAAGfgNeKCQACos7AiwgAAaaIj48EAAHs78CeAgACo8bdPgJ5XzmF",
			"watchdog", "watchdog wd fired 2 time(s), baseline 1"},
		{"inversion.json", "xt1:AQLGvMP8CAGgp2lL",
			"inversion", "task hi endured a 663us priority inversion (bound 500us)"},
	} {
		eng := newEngine(t, readScenario(t, c.scenario))
		tr, err := Decode(c.trace)
		if err != nil {
			t.Fatalf("%s: recorded trace does not decode: %v", c.scenario, err)
		}
		_, v, err := eng.Replay(tr)
		if err != nil {
			t.Fatalf("%s: %v", c.scenario, err)
		}
		if v == nil || v.Kind != c.kind || v.Detail != c.detail {
			t.Errorf("%s: replay gave %+v, want %s violation %q", c.scenario, v, c.kind, c.detail)
		}
	}
}

// TestExploreSpaceIsGoroutineEngine checks that the task engine does not
// change the decision space: smp.json, whose tasks leave their engine unset
// and so run as continuations, explores exactly as it does with every task
// set to "engine": "goroutine".
func TestExploreSpaceIsGoroutineEngine(t *testing.T) {
	base := readScenario(t, "smp.json")
	desc, err := scenario.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range desc.Tasks {
		desc.Tasks[i].Engine = "goroutine"
	}
	pinned, err := desc.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	run := func(data []byte) *Summary {
		eng := newEngine(t, data)
		eng.Cfg.MaxRuns = 16
		sum, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if got, want := run(base), run(pinned); !reflect.DeepEqual(got, want) {
		t.Errorf("unset engines explore differently from explicit goroutine:\n got %+v\nwant %+v", got, want)
	}
}

// TestExploreFindsSameInstantRaces runs two scenarios whose tasks sit on
// different processors and touch nothing but a constraint or an execution
// trace, waking at the same instant. Pruning must keep both orders: the
// swapped one stops constraint c before it starts (a run failure), or hands
// task a the long trace entry (a constraint violation).
func TestExploreFindsSameInstantRaces(t *testing.T) {
	for _, c := range []struct{ file, kind string }{
		{"lat_race.json", "run-failure"},
		{"trace_race.json", "constraint"},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngine(t, data)
		sum, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Violations) != 1 || sum.Violations[0].Kind != c.kind || !sum.Violations[0].Replayed {
			t.Errorf("%s: violations %+v, want one replay-verified %s", c.file, sum.Violations, c.kind)
		}
	}
}

// TestExploreFindsInversionViolation checks the priority-inversion
// invariant end to end on the inversion scenario: the jitter perturbation
// that lands the medium task inside the low task's critical section must be
// found and its minimized trace must replay.
func TestExploreFindsInversionViolation(t *testing.T) {
	eng := newEngine(t, readScenario(t, "inversion.json"))
	sum, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) == 0 {
		t.Fatal("no violation found")
	}
	v := sum.Violations[0]
	if v.Kind != "inversion" || v.Subject != "hi" {
		t.Fatalf("violation = %+v, want inversion of task hi", v)
	}
	if !v.Replayed {
		t.Fatalf("violation replay not verified: %+v", v)
	}
	if !strings.Contains(v.Detail, "priority inversion") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

// TestExploreWorkerCountInvariant pins that the exploration is independent
// of the worker pool size: serial and parallel searches must find the same
// violations with the same traces and counts.
func TestExploreWorkerCountInvariant(t *testing.T) {
	run := func(workers int) *Summary {
		eng := newEngine(t, readScenario(t, "inversion.json"))
		eng.Cfg.Workers = workers
		sum, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	serial, parallel := run(1), run(4)
	if serial.Explored != parallel.Explored || len(serial.Violations) != len(parallel.Violations) {
		t.Fatalf("serial explored %d/%d violations, parallel %d/%d",
			serial.Explored, len(serial.Violations), parallel.Explored, len(parallel.Violations))
	}
	for i := range serial.Violations {
		if serial.Violations[i].Trace != parallel.Violations[i].Trace {
			t.Fatalf("violation %d traces differ: %q vs %q",
				i, serial.Violations[i].Trace, parallel.Violations[i].Trace)
		}
	}
}

// TestExploreCrossEngineCheck runs the engine-equivalence invariant: every
// explored interleaving replayed on the other RTOS engine must produce the
// same trace signature. The seed scenarios satisfy it, so no divergence may
// be reported.
func TestExploreCrossEngineCheck(t *testing.T) {
	eng := newEngine(t, readScenario(t, "inversion.json"))
	eng.Cfg.MaxRuns = 8
	eng.Cfg.MaxInversion = 0 // isolate the engine check
	eng.Cfg.CheckEngines = true
	sum, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.EngineRuns != sum.Explored {
		t.Fatalf("engine runs = %d, explored = %d", sum.EngineRuns, sum.Explored)
	}
	for _, v := range sum.Violations {
		if v.Kind == "engine-divergence" {
			t.Fatalf("spurious engine divergence: %+v", v)
		}
	}
}

// TestDPORPruningReducesScheduleSpace checks the commutativity analysis on a
// two-processor scenario: same-instant actions on unrelated processors
// commute, so the pruned alternative count must be strictly below the naive
// factorial count.
func TestDPORPruningReducesScheduleSpace(t *testing.T) {
	eng := newEngine(t, readScenario(t, "soc_bus.json"))
	eng.Cfg.MaxRuns = 8
	sum, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.naiveAlts <= sum.Stats.dporAlts {
		t.Fatalf("pruning did not reduce the schedule space: naive %d, pruned %d",
			sum.Stats.naiveAlts, sum.Stats.dporAlts)
	}
	if sum.Stats.dporAlts == 0 {
		t.Fatal("no alternatives counted")
	}
}

// TestFootprintGroups pins the conflict analysis: tasks on different
// processors commute, tasks sharing any object an op can name do not, and
// unknown owners conflict with everything.
func TestFootprintGroups(t *testing.T) {
	desc, err := scenario.Parse([]byte(`{
		"processors": [{"name": "a"}, {"name": "b"}],
		"events": [{"name": "ev"}],
		"tasks": [
			{"name": "t1", "processor": "a", "body": [{"op": "execute", "for": "1us"}]},
			{"name": "t2", "processor": "b", "body": [{"op": "execute", "for": "1us"}]},
			{"name": "t3", "processor": "b", "body": [{"op": "signal", "event": "ev"}]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	fp := newFootprints(desc)
	groups := func(names ...string) [][]int {
		acts := make([]sim.TimedAction, len(names))
		for i, n := range names {
			acts[i] = sim.TimedAction{Name: n, IsProc: true}
		}
		return fp.groups(acts)
	}
	// Disjoint processors: two groups.
	if gs := groups("t1.delay", "t2.delay"); len(gs) != 2 {
		t.Fatalf("disjoint processors grouped: %v", gs)
	}
	// Same processor: one group.
	if gs := groups("t2.delay", "t3.delay"); len(gs) != 1 {
		t.Fatalf("same-processor tasks split: %v", gs)
	}
	// The event waiter conflicts with the signaller through ev even across
	// processors.
	if gs := groups("t1.delay", "ev"); len(gs) != 2 {
		t.Fatalf("unrelated event grouped with task: %v", gs)
	}
	if gs := groups("t3.delay", "ev"); len(gs) != 1 {
		t.Fatalf("event and its signaller split: %v", gs)
	}
	// Unknown owners conflict with everything: soundness fallback.
	if gs := groups("t1.delay", "mystery", "t2.delay"); len(gs) != 1 {
		t.Fatalf("unknown owner did not force one group: %v", gs)
	}

	// Every op that names an object: two tasks on different processors
	// whose bodies reference the same object through it conflict.
	objects := `"events": [{"name": "x"}], "queues": [{"name": "x", "capacity": 1}],
		"shared": [{"name": "x"}], "constraints": [{"name": "x", "limit": "1ms"}],
		"traces": {"x": ["1us"]}, "buses": [{"name": "bus"}],
		"channels": [{"name": "ch", "bus": "bus", "capacity": 1}],
		"watchdogs": [{"name": "x", "processor": "c", "timeout": "1ms"}],
		"irqs": [{"name": "x", "processor": "c", "body": [{"op": "execute", "for": "1us"}]}],
		"servers": [{"name": "x", "processor": "c", "kind": "polling", "period": "1ms", "budget": "1us"}]`
	for _, op := range []string{
		`{"op": "execute_trace", "trace": "x"}`,
		`{"op": "wait", "event": "x"}`,
		`{"op": "signal", "event": "x"}`,
		`{"op": "put", "queue": "x"}`,
		`{"op": "get", "queue": "x"}`,
		`{"op": "tryput", "queue": "x"}`,
		`{"op": "lock", "shared": "x"}`,
		`{"op": "unlock", "shared": "x"}`,
		`{"op": "read", "shared": "x"}`,
		`{"op": "write", "shared": "x"}`,
		`{"op": "lat_start", "constraint": "x"}`,
		`{"op": "lat_stop", "constraint": "x"}`,
		`{"op": "kick", "watchdog": "x"}`,
		`{"op": "raise", "irq": "x"}`,
		`{"op": "send", "channel": "ch"}`,
		`{"op": "recv", "channel": "ch"}`,
		`{"op": "submit", "server": "x", "for": "1us"}`,
		`{"op": "repeat", "count": 2, "body": [{"op": "lat_stop", "constraint": "x"}]}`,
	} {
		desc, err := scenario.Parse([]byte(`{
			"processors": [{"name": "a"}, {"name": "b"}, {"name": "c"}], ` + objects + `,
			"tasks": [
				{"name": "t1", "processor": "a", "body": [` + op + `]},
				{"name": "t2", "processor": "b", "body": [` + op + `]}
			]
		}`))
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		acts := []sim.TimedAction{{Name: "t1.delay", IsProc: true}, {Name: "t2.delay", IsProc: true}}
		if gs := newFootprints(desc).groups(acts); len(gs) != 1 {
			t.Errorf("%s: tasks sharing an object commute: %v", op, gs)
		}
	}
}
