package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestConcurrentRenderMatchesSerial renders every artifact of every corpus
// scenario (sweep specs excluded), sequentially and on two shards, and
// holds each concurrently rendered artifact byte-identical to a serial call
// of the same writer on the same run view, and the report composed
// meanwhile to one composed alone. Under -race it also checks that
// the renderers and the report only read the view.
func TestConcurrentRenderMatchesSerial(t *testing.T) {
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
		for _, shards := range []int{0, 2} {
			opts := Options{Shards: shards, Artifacts: KnownArtifacts, Accesses: true}
			t.Run(fmt.Sprintf("%s/shards=%d", filepath.Base(path), shards), func(t *testing.T) {
				desc, err := Prepare(data, opts)
				if err != nil {
					t.Fatal(err)
				}
				v, err := execute(desc, opts)
				if err != nil {
					t.Fatal(err)
				}
				var report bytes.Buffer
				got, err := v.render(&report, "", opts)
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				v.writeReport(&want, "", opts)
				if !bytes.Equal(report.Bytes(), want.Bytes()) {
					t.Errorf("report composed during the render differs from a serial one")
				}
				if len(got) != len(KnownArtifacts) {
					t.Fatalf("%d artifacts, want %d", len(got), len(KnownArtifacts))
				}
				for _, a := range KnownArtifacts {
					var want bytes.Buffer
					if err := v.renderArtifact(&want, a, opts); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got[a], want.Bytes()) {
						t.Errorf("%s: concurrent render differs from the serial one (%d vs %d bytes)",
							a, len(got[a]), want.Len())
					}
				}
			})
		}
	}
}

// TestRenderErrorInArtifactOrder checks that a failed render surfaces the
// first failing artifact in the requested order, after every renderer has
// finished.
func TestRenderErrorInArtifactOrder(t *testing.T) {
	desc, err := Prepare(readScenario(t, "figure6.json"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := execute(desc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Artifacts: []string{"csv", "bogus", "perfetto", "other"}}
	arts, err := v.render(&bytes.Buffer{}, "", opts)
	if err == nil || arts != nil {
		t.Fatalf("artifacts %v, error %v; want no artifacts and an error", arts, err)
	}
	if want := `rendering bogus artifact: unknown artifact "bogus"`; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}
