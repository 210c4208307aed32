package metrics_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// TestWriteJSONCorpusMatchesReference holds WriteJSON byte-identical to the
// encoding/json reference on the registry of every shipped example
// scenario (sweep specs excluded).
func TestWriteJSONCorpusMatchesReference(t *testing.T) {
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
		t.Run(filepath.Base(path), func(t *testing.T) {
			desc, err := scenario.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			built, err := desc.Build()
			if err != nil {
				t.Fatal(err)
			}
			built.Run()
			reg := built.Sys.Metrics
			var got, want bytes.Buffer
			if err := reg.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := metrics.WriteJSONReference(reg, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("WriteJSON differs from the encoding/json reference (%d vs %d bytes)", got.Len(), want.Len())
			}
		})
	}
}
