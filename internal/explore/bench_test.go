package explore

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkExplore measures full schedule-space exploration throughput on
// the priority-inversion scenario: each iteration enumerates a bounded
// frontier (one parse, then build, run and judge per interleaving) and reports how many
// interleavings one op covered, so ns/op divided by runs/op approximates the
// per-interleaving cost.
func BenchmarkExplore(b *testing.B) {
	base, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "inversion.json"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := newEngine(b, base)
		eng.Cfg.MaxRuns = 16
		eng.Cfg.MaxInversion = 0 // never violated: benchmark pure enumeration
		eng.Cfg.Workers = 1
		sum, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(sum.Explored), "runs/op")
		}
	}
}

// BenchmarkTraceCodec measures the choice-trace encoder/decoder round trip,
// the per-run cost of recording and replaying decisions.
func BenchmarkTraceCodec(b *testing.B) {
	tr := Trace{}
	for i := 0; i < 64; i++ {
		tr.Decisions = append(tr.Decisions, Decision{
			Kind:  KindTie + uint8(i%2),
			Key:   uint32(i * 2654435761),
			Value: uint32(i % 7),
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := tr.Encode()
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
