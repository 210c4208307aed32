package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// corpusRecorders simulates every shipped example scenario (sweep specs
// excluded) on both scheduler engines and hands each trace to check.
func corpusRecorders(t *testing.T, check func(t *testing.T, r *trace.Recorder, opts trace.PerfettoOptions)) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus scenarios: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var probe struct{ Scenario string }
		if json.Unmarshal(data, &probe) == nil && probe.Scenario != "" {
			continue // a sweep spec, not a scenario
		}
		for _, engine := range []string{"procedural", "threaded"} {
			t.Run(filepath.Base(path)+"/"+engine, func(t *testing.T) {
				desc, err := scenario.Parse(data)
				if err != nil {
					t.Fatal(err)
				}
				for i := range desc.Processors {
					desc.Processors[i].Engine = engine
				}
				built, err := desc.Build()
				if err != nil {
					t.Fatal(err)
				}
				built.Run()
				check(t, built.Sys.Rec, trace.PerfettoOptions{Misses: built.Sys.Constraints.PerfettoMisses()})
			})
		}
	}
}

// TestPerfettoCorpusMatchesReference holds the hand-written exporter
// byte-identical to the encoding/json reference on the whole corpus.
func TestPerfettoCorpusMatchesReference(t *testing.T) {
	corpusRecorders(t, func(t *testing.T, r *trace.Recorder, opts trace.PerfettoOptions) {
		var got, want bytes.Buffer
		if err := r.WritePerfetto(&got, opts); err != nil {
			t.Fatal(err)
		}
		if err := trace.WritePerfettoReference(r, &want, opts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("export differs from the encoding/json reference (%d vs %d bytes)", got.Len(), want.Len())
		}
	})
}

// TestPerfettoCorpusNoDuplicateSlices is the regression test for the
// trailing Running slice once being repeated per dispatch: no corpus export
// may contain two identical complete events.
func TestPerfettoCorpusNoDuplicateSlices(t *testing.T) {
	corpusRecorders(t, func(t *testing.T, r *trace.Recorder, opts trace.PerfettoOptions) {
		var buf bytes.Buffer
		if err := r.WritePerfetto(&buf, opts); err != nil {
			t.Fatal(err)
		}
		var file struct {
			TraceEvents []struct {
				Name, Cat, Ph string
				Ts            float64
				Dur           float64
				Pid, Tid      int
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
			t.Fatal(err)
		}
		seen := map[any]bool{}
		for _, e := range file.TraceEvents {
			if e.Ph != "X" {
				continue
			}
			if seen[e] {
				t.Errorf("duplicate slice %+v", e)
			}
			seen[e] = true
		}
	})
}
