package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/explore"
	"repro/internal/scenario"
	"repro/internal/sim"
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

// A model panic names the task that raised it on either task engine:
// panic_swapped.json is lat_race.json with its tasks swapped, so b stops
// constraint c before a starts it. The whole failure text is the same on
// both engines: the continuation engine runs b as a kernel strand and must
// not list the dead strand as blocked, nor a as waiting while its strand is
// queued to run (the goroutine engine does not list a runnable process).
func TestPanicNamesTaskBothEngines(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "panic_swapped.json"))
	if err != nil {
		t.Fatal(err)
	}
	const want = `sim: process "b" panicked at 10us: rtos: constraint "c" stopped with no outstanding start`
	var first *Result
	for _, engine := range []string{"goroutine", "continuation"} {
		res, err := Run(data, Options{TaskEngine: engine}, "swapped")
		if err != nil {
			t.Fatal(err)
		}
		line, _, _ := strings.Cut(res.SimError, "\n")
		if res.Finish != "panic" || line != want {
			t.Errorf("task engine %s: finish %s, first error line %q; want panic, %q", engine, res.Finish, line, want)
		}
		if strings.Contains(res.SimError, "blocked: b ") {
			t.Errorf("task engine %s lists the panicked task as blocked:\n%s", engine, res.SimError)
		}
		if first == nil {
			first = res
		} else if res.SimError != first.SimError {
			t.Errorf("failure text differs across task engines:\ngoroutine:\n%s\n%s:\n%s", first.SimError, engine, res.SimError)
		}
	}
}

// A periodic task whose release jitter sleeps past its deadline misses while
// asleep. Under the abort and restart policies the miss aborts that cycle
// only: the task keeps its release schedule and runs to the horizon on
// either task engine, with identical reports.
func TestJitterAbortKeepsPeriodicTaskBothEngines(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "jitter_abort.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"abort", "restart"} {
		desc, err := scenario.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		desc.Tasks[0].OnMiss = policy
		model, err := desc.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var first *Result
		for _, engine := range []string{"goroutine", "continuation"} {
			res, err := Run(model, Options{TaskEngine: engine, Chronology: true}, "jitter-abort")
			if err != nil {
				t.Fatal(err)
			}
			report := string(res.Report)
			if res.Finish != "limit" || res.End != 5*sim.Ms || res.SimError != "" {
				t.Errorf("%s/%s: finished %s at %v (error %q); want limit at 5ms",
					policy, engine, res.Finish, res.End, res.SimError)
			}
			if strings.Contains(report, "task terminates") || !strings.Contains(report, "aborted)") {
				t.Errorf("%s/%s: want cycle aborts and no task termination:\n%s", policy, engine, report)
			}
			if res.ExitCode() != 1 {
				t.Errorf("%s/%s: exit %d; the deadline miss must stay a violation", policy, engine, res.ExitCode())
			}
			if first == nil {
				first = res
			} else if afterLine(report) != afterLine(string(first.Report)) {
				t.Errorf("%s: reports differ across task engines:\n%s\n---\n%s", policy, first.Report, report)
			}
		}
	}
}

// afterLine drops a report's first line, which carries the kernel
// activation count the task engines differ in by design.
func afterLine(report string) string {
	_, rest, _ := strings.Cut(report, "\n")
	return rest
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
			// A failed run still renders every requested artifact, each on a
			// goroutine of its own; those must be gone too. The sequential
			// panic leaves an empty trace, whose SVG is an empty chart.
			for _, artifacts := range [][]string{nil, KnownArtifacts} {
				t.Run(fmt.Sprintf("artifacts=%d", len(artifacts)), func(t *testing.T) {
					before := runtime.NumGoroutine()
					for range 20 {
						res, err := Run(c.data, Options{TaskEngine: "goroutine", Shards: c.shards, Artifacts: artifacts}, c.name)
						if err != nil {
							t.Fatal(err)
						}
						if res.Finish != c.finish || res.ExitCode() != 1 {
							t.Fatalf("finish %s, exit %d; want %s, exit 1", res.Finish, res.ExitCode(), c.finish)
						}
						if len(res.Artifacts) != len(artifacts) {
							t.Fatalf("%d artifacts, want %d", len(res.Artifacts), len(artifacts))
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
	if len(res.Artifacts) != len(KnownArtifacts) {
		t.Errorf("produced %d artifacts, want %d", len(res.Artifacts), len(KnownArtifacts))
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
	desc, err := scenario.Parse(readScenario(t, "faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(desc, ExploreOptions{Runs: 16, Workers: 2}, "faults.json")
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

// A latency constraint whose name ends in ".deadline" is a constraint, not a
// periodic deadline miss: sweep metrics, Perfetto instants and the
// explorer's miss set count only the periodic watchdog's misses.
func TestDeadlineNamedConstraintIsNotAMiss(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "deadline_name.json"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Sweep(&batch.Spec{}, data, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m := sw.Results[0].Metrics; m.Violations != 1 || m.DeadlineMisses != 0 {
		t.Errorf("sweep metrics: %d violation(s), %d miss(es); want 1, 0", m.Violations, m.DeadlineMisses)
	}
	res, err := Run(data, Options{Artifacts: []string{"perfetto"}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(res.Artifacts["perfetto"], []byte("deadline-miss")) {
		t.Error("Perfetto trace marks a deadline miss for a latency constraint")
	}
	desc, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := explore.New(desc).Replay(explore.Trace{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Misses) != 0 || r.Constraints["a.deadline"] != 1 {
		t.Errorf("explore: misses %v, constraint violations %v; want none, a.deadline 1", r.Misses, r.Constraints)
	}
}

// A sweep axis that breaks the base scenario (a core count below a task's
// affinity, the global domain for a pinned task) fails those variants with
// the validation error instead of panicking the sweep.
func TestSweepInvalidVariantIsFailedRow(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "aff.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec *batch.Spec
		want string
	}{
		{&batch.Spec{Cores: []int{1}}, `affinity 1 out of range for processor "p" with 1 core(s)`},
		{&batch.Spec{Domains: []string{"global"}}, `affinity requires the partitioned domain on processor "p"`},
	} {
		res, err := Sweep(c.spec, data, SweepOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitCode() != 1 || !strings.Contains(string(res.Report), "FAILED: scenario: task \"a\": "+c.want) {
			t.Errorf("exit %d, report:\n%s\nwant exit 1 and a FAILED row with %q", res.ExitCode(), res.Report, c.want)
		}
	}
}
