package rtosmodel_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/psim"
	"repro/internal/scenario"
)

// parallelSoCJSON builds an n-stage decoder pipeline plus per-stage
// background load, one processor per stage, each stage on its own shard:
// the workload BenchmarkParallelSoC shards across kernels. Stages couple
// only through latency-bearing NoC links, so the conservative engine can
// overlap their simulation.
func parallelSoCJSON(stages int) string {
	var b strings.Builder
	b.WriteString(`{"name": "parallel-soc", "horizon": "20ms", "processors": [`)
	for i := 0; i < stages; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"name": "cpu%d", "shard": "s%d", "overheads": {"scheduling": "500ns", "contextSave": "1us", "contextLoad": "1us"}}`, i, i)
	}
	b.WriteString(`], "buses": [`)
	for i := 0; i+1 < stages; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"name": "link%d", "perByte": "2ns", "arbitration": "150ns"}`, i)
	}
	b.WriteString(`], "channels": [`)
	for i := 0; i+1 < stages; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"name": "ch%d", "bus": "link%d", "capacity": 16, "messageBytes": 1024}`, i, i)
	}
	b.WriteString(`], "tasks": [`)
	for i := 0; i < stages; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		// Background load: three periodic tasks per stage keep every kernel's
		// scheduler busy independently of the pipeline traffic.
		fmt.Fprintf(&b, `{"name": "bg%d_a", "processor": "cpu%d", "priority": 3, "period": "50us", "body": [{"op": "execute", "for": "7us"}]}, `, i, i)
		fmt.Fprintf(&b, `{"name": "bg%d_b", "processor": "cpu%d", "priority": 2, "period": "70us", "body": [{"op": "execute", "for": "9us"}]}, `, i, i)
		fmt.Fprintf(&b, `{"name": "bg%d_c", "processor": "cpu%d", "priority": 1, "period": "110us", "body": [{"op": "execute", "for": "11us"}]}, `, i, i)
		switch {
		case i == 0:
			fmt.Fprintf(&b, `{"name": "stage0", "processor": "cpu0", "priority": 8, "period": "100us", "body": [{"op": "execute", "for": "15us"}, {"op": "send", "channel": "ch0", "value": 1}]}`)
		case i == stages-1:
			fmt.Fprintf(&b, `{"name": "stage%d", "processor": "cpu%d", "priority": 8, "loop": true, "body": [{"op": "recv", "channel": "ch%d"}, {"op": "execute", "for": "18us"}]}`, i, i, i-1)
		default:
			fmt.Fprintf(&b, `{"name": "stage%d", "processor": "cpu%d", "priority": 8, "loop": true, "body": [{"op": "recv", "channel": "ch%d"}, {"op": "execute", "for": "18us"}, {"op": "send", "channel": "ch%d", "value": 1}]}`, i, i, i-1, i)
		}
	}
	b.WriteString(`]}`)
	return b.String()
}

// BenchmarkParallelSoC measures the sharded multi-kernel engine against the
// sequential kernel on a 4-stage pipeline SoC: "seq" elaborates and runs the
// whole system on one kernel, "shards=N" partitions it onto N kernels
// synchronized by channel lookahead (a one-shard plan is "seq": the runner
// never sends it through psim). Speedup requires free host cores; on a
// single-core host the parallel variants measure pure synchronization
// overhead. BENCH_PR10.json records the numbers with the host core count.
func BenchmarkParallelSoC(b *testing.B) {
	js := parallelSoCJSON(4)
	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			desc, err := scenario.Parse([]byte(js))
			if err != nil {
				b.Fatal(err)
			}
			built, err := desc.Build()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := built.RunChecked(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				desc, err := scenario.Parse([]byte(js))
				if err != nil {
					b.Fatal(err)
				}
				plan, err := desc.Partition(n)
				if err != nil {
					b.Fatal(err)
				}
				res, err := psim.Run(desc, plan)
				if err != nil {
					b.Fatal(err)
				}
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}
