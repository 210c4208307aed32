package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
)

func readScenario(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRunFigure6Report(t *testing.T) {
	data := readScenario(t, "figure6.json")
	res, err := Run(data, Options{}, "figure6.json")
	if err != nil {
		t.Fatal(err)
	}
	if res.SimError != "" {
		t.Fatalf("unexpected simulation error: %s", res.SimError)
	}
	if res.ExitCode() != 0 {
		t.Fatalf("exit code = %d, want 0", res.ExitCode())
	}
	report := string(res.Report)
	for _, want := range []string{
		"scenario figure6 simulated to",
		"kernel activations",
		"statistics",
		"constraints",
	} {
		if !strings.Contains(strings.ToLower(report), strings.ToLower(want)) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if res.Activations == 0 || res.DeltaCycles == 0 {
		t.Errorf("effort counters not populated: %+v", res)
	}
}

// The report must be deterministic: two runs of the same bytes and options
// produce byte-identical reports. The daemon's content-hash cache and the
// CLI/daemon byte-identity guarantee both rest on this.
func TestRunDeterministicBytes(t *testing.T) {
	for _, name := range []string{"figure6.json", "periodic_rm.json", "soc_bus.json"} {
		data := readScenario(t, name)
		opts := Options{Timeline: true, Chronology: true, Analyze: true,
			Artifacts: []string{"csv", "json", "perfetto"}}
		a, err := Run(data, opts, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Run(data, opts, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(a.Report, b.Report) {
			t.Errorf("%s: reports differ between identical runs", name)
		}
		for _, art := range opts.Artifacts {
			if !bytes.Equal(a.Artifacts[art], b.Artifacts[art]) {
				t.Errorf("%s: artifact %s differs between identical runs", name, art)
			}
		}
	}
}

func TestRunOptionOverrides(t *testing.T) {
	data := readScenario(t, "figure6.json")

	short, err := Run(data, Options{Until: "100us"}, "f")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(data, Options{}, "f")
	if err != nil {
		t.Fatal(err)
	}
	if short.End >= full.End {
		t.Errorf("until override did not shorten the run: %v vs %v", short.End, full.End)
	}

	if _, err := Run(data, Options{Engine: "quantum"}, "f"); err == nil {
		t.Error("bad engine override accepted")
	}
	if _, err := Run(data, Options{TaskEngine: "fiber"}, "f"); err == nil {
		t.Error("bad task-engine override accepted")
	}
	if _, err := Run(data, Options{Until: "not-a-duration"}, "f"); err == nil {
		t.Error("bad until override accepted")
	}
	if _, err := Run(data, Options{Artifacts: []string{"pdf"}}, "f"); err == nil {
		t.Error("unknown artifact accepted")
	}
	// The timeline renderer allocates width bytes per task row: a negative
	// or huge width is an option error, not an allocation.
	for _, w := range []int{-1, MaxTimelineWidth + 1, 1 << 20} {
		if _, err := Prepare(data, Options{Timeline: true, Width: w}); err == nil {
			t.Errorf("timeline width %d accepted", w)
		}
	}
	if _, err := Prepare(data, Options{Timeline: true, Width: MaxTimelineWidth}); err != nil {
		t.Errorf("timeline width %d rejected: %v", MaxTimelineWidth, err)
	}
	if _, err := Run([]byte("{"), Options{}, "f"); err == nil {
		t.Error("malformed scenario accepted")
	}
}

// A model whose two tasks wait forever on an event nobody signals is the
// same deadlock whatever the task engine: identical failure text, finish
// verdict and exit code.
func TestStuckScenarioSameVerdictBothEngines(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "scenario", "testdata", "stuck.json"))
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for _, engine := range []string{"goroutine", "continuation", ""} {
		res, err := Run(data, Options{TaskEngine: engine}, "stuck")
		if err != nil {
			t.Fatal(err)
		}
		if res.Finish != "deadlock" || res.ExitCode() != 1 ||
			!strings.Contains(res.SimError, "2 process(es) blocked forever") {
			t.Fatalf("task engine %q: finish %s, exit %d, error %q; want a two-task deadlock",
				engine, res.Finish, res.ExitCode(), res.SimError)
		}
		if first == nil {
			first = res
		} else if res.SimError != first.SimError {
			t.Errorf("task engine %q error %q, goroutine engine %q", engine, res.SimError, first.SimError)
		}
	}
}

// Failed runs unwind their kernels: after a series of deadlocked and
// panicked runs on goroutine task bodies, sequential and sharded, the
// goroutine count is back at its baseline.
func TestFailedRunsLeaveNoGoroutines(t *testing.T) {
	// Task a on p1 fails (the op given), task b on p2 waits forever.
	scenario := func(fail string) []byte {
		return []byte(`{"horizon": "1ms",
		  "processors": [{"name": "p1"}, {"name": "p2"}],
		  "events": [{"name": "never"}],
		  "constraints": [{"name": "c", "limit": "1us"}],
		  "tasks": [
		    {"name": "a", "processor": "p1", "body": [{"op": "execute", "for": "5us"}, ` + fail + `]},
		    {"name": "b", "processor": "p2", "body": [{"op": "execute", "for": "5us"}, {"op": "wait", "event": "never"}]}
		  ]}`)
	}
	deadlock := scenario(`{"op": "wait", "event": "never"}`)
	panics := scenario(`{"op": "lat_stop", "constraint": "c"}`)
	for _, c := range []struct {
		name   string
		data   []byte
		shards int
		finish string
	}{
		{"sequential-deadlock", deadlock, 0, "deadlock"},
		{"sequential-panic", panics, 0, "panic"},
		{"shards-deadlock", deadlock, 2, "deadlock"},
		{"shards-panic", panics, 2, "panic"},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for range 20 {
				res, err := Run(c.data, Options{TaskEngine: "goroutine", Shards: c.shards}, c.name)
				if err != nil {
					t.Fatal(err)
				}
				if res.Finish != c.finish || res.ExitCode() != 1 {
					t.Fatalf("finish %s, exit %d; want %s, exit 1", res.Finish, res.ExitCode(), c.finish)
				}
			}
			// An unwound goroutine exits just after handing control back.
			got := runtime.NumGoroutine()
			for end := time.Now().Add(2 * time.Second); got > before && time.Now().Before(end); got = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if got > before {
				t.Errorf("%d goroutines after 20 failed runs, %d before", got, before)
			}
		})
	}
}

func TestRunEngineEquivalence(t *testing.T) {
	data := readScenario(t, "figure6.json")
	proc, err := Run(data, Options{Engine: "procedural"}, "f")
	if err != nil {
		t.Fatal(err)
	}
	thr, err := Run(data, Options{Engine: "threaded"}, "f")
	if err != nil {
		t.Fatal(err)
	}
	if proc.End != thr.End || proc.ConstraintsOK != thr.ConstraintsOK {
		t.Errorf("engines disagree: procedural %v/%v, threaded %v/%v",
			proc.End, proc.ConstraintsOK, thr.End, thr.ConstraintsOK)
	}
}

func TestRunAllArtifacts(t *testing.T) {
	data := readScenario(t, "figure6.json")
	res, err := Run(data, Options{Artifacts: KnownArtifacts}, "f")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range KnownArtifacts {
		if len(res.Artifacts[a]) == 0 {
			t.Errorf("artifact %s is empty", a)
		}
	}
	names := res.ArtifactNames()
	if len(names) != len(KnownArtifacts) {
		t.Errorf("ArtifactNames = %v", names)
	}
	var buf bytes.Buffer
	if err := res.WriteArtifact(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("WriteArtifact wrote nothing")
	}
	if err := res.WriteArtifact(&buf, "nope"); err == nil {
		t.Error("WriteArtifact accepted an unproduced artifact")
	}
}

func TestResultJSONShape(t *testing.T) {
	data := readScenario(t, "figure6.json")
	res, err := Run(data, Options{}, "f")
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"name", "end", "finish", "activations", "constraintsOK"} {
		if _, ok := m[k]; !ok {
			t.Errorf("marshaled Result missing %q: %s", k, out)
		}
	}
	// Report and artifact bytes must NOT leak into the JSON status view.
	if _, ok := m["Report"]; ok {
		t.Error("Report leaked into Result JSON")
	}
}

func TestSweepRunsVariants(t *testing.T) {
	base := readScenario(t, "figure6.json")
	spec, err := batch.ParseSpec([]byte(`{
		"scenario": "figure6.json",
		"engines": ["procedural", "threaded"],
		"policies": ["priority"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	res, err := Sweep(spec, base, SweepOptions{Workers: 2, Progress: func(done, total int) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(res.Results))
	}
	if calls != 2 {
		t.Errorf("progress called %d times, want 2", calls)
	}
	if res.Canceled {
		t.Error("uncanceled sweep reported Canceled")
	}
	if res.ExitCode() != 0 {
		t.Errorf("exit code = %d, want 0 (summary: %+v)", res.ExitCode(), res.Summary)
	}
	report := string(res.Report)
	if !strings.Contains(report, "procedural") || !strings.Contains(report, "threaded") {
		t.Errorf("report missing variant rows:\n%s", report)
	}
	js, err := res.ResultsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var rows []batch.Result
	if err := json.Unmarshal(js, &rows); err != nil {
		t.Fatalf("ResultsJSON not valid JSON: %v", err)
	}
	if len(rows) != 2 {
		t.Errorf("ResultsJSON has %d rows, want 2", len(rows))
	}

	noTable, err := Sweep(spec, base, SweepOptions{NoTable: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(noTable.Report) >= len(res.Report) {
		t.Error("NoTable did not shrink the report")
	}
}

func TestSweepBadBase(t *testing.T) {
	spec, err := batch.ParseSpec([]byte(`{"scenario": "x.json", "engines": ["procedural"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(spec, []byte("{"), SweepOptions{}); err == nil {
		t.Error("malformed base scenario accepted")
	}
}

func TestExploreFindsExpectedViolations(t *testing.T) {
	data := readScenario(t, "faults.json")
	res, err := Explore(data, ExploreOptions{Runs: 16, Workers: 2}, "faults.json")
	if err != nil {
		t.Fatal(err)
	}
	report := string(res.Report)
	if !strings.HasPrefix(report, "scenario ") {
		t.Errorf("report missing scenario header:\n%s", report)
	}
	if len(res.MetricsJSON) == 0 {
		t.Error("metrics JSON is empty")
	}
	var m map[string]any
	if err := json.Unmarshal(res.MetricsJSON, &m); err != nil {
		t.Errorf("metrics JSON invalid: %v", err)
	}
	if got, want := res.ExitCode(), 0; len(res.Summary.Violations) > 0 {
		want = 1
		if got != want {
			t.Errorf("exit code = %d, want %d", got, want)
		}
	} else if got != want {
		t.Errorf("exit code = %d, want %d", got, want)
	}
}
