package batch

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkSweep measures sweep throughput at several worker counts over a
// 64-variant cross-product; near-linear scaling up to GOMAXPROCS is the
// target (each run owns a private kernel, so workers share nothing).
func BenchmarkSweep(b *testing.B) {
	spec := testSpec()
	spec.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	variants, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	base := parse(b, baseScenario)
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportMetric(float64(len(variants)), "runs/op")
			for i := 0; i < b.N; i++ {
				results := spec.Run(base, variants, Options{Workers: workers})
				for j := range results {
					if results[j].Err != "" {
						b.Fatal(results[j].Err)
					}
				}
			}
		})
	}
}
