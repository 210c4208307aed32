package metrics

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if hw := g.HighWater(); hw != 7 {
		t.Fatalf("high-water = %d, want 7", hw)
	}
	if r.Len() != 2 {
		t.Fatalf("registry has %d metrics, want 2", r.Len())
	}
}

func TestRegistryIdempotentAndLabelled(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("task", "a"))
	b := r.Counter("x_total", "", L("task", "b"))
	if a == b {
		t.Fatal("different label sets share an instrument")
	}
	if again := r.Counter("x_total", "", L("task", "a")); again != a {
		t.Fatal("re-registration returned a new instrument")
	}
	if r.Len() != 2 {
		t.Fatalf("registry has %d metrics, want 2", r.Len())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []int64{1, 2})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || g.HighWater() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ps", "latency", []int64{10, 20, 50})
	for _, v := range []int64{5, 10, 11, 60, 60, 19} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 165 {
		t.Fatalf("sum = %d, want 165", h.Sum())
	}
	if h.Min() != 5 || h.Max() != 60 {
		t.Fatalf("min/max = %d/%d, want 5/60", h.Min(), h.Max())
	}
	s := r.Snapshot()
	m, ok := s.Get("lat_ps")
	if !ok || m.Histogram == nil {
		t.Fatal("histogram missing from snapshot")
	}
	wantBuckets := []uint64{2, 2, 0} // <=10: {5,10}; <=20: {11,19}; <=50: none
	for i, want := range wantBuckets {
		if got := m.Histogram.Buckets[i].Count; got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if m.Histogram.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", m.Histogram.Overflow)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", "", []int64{10, 10})
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_delta_cycles_total", "delta cycles").Add(3)
	r.Gauge("rtos_ready_depth", "ready tasks", L("cpu", "cpu0")).Set(2)
	h := r.Histogram("resp_ps", "response time", []int64{10, 20}, L("task", "a"))
	h.Observe(5)
	h.Observe(15)
	h.Observe(99)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP sim_delta_cycles_total delta cycles",
		"# TYPE sim_delta_cycles_total counter",
		"sim_delta_cycles_total 3",
		`rtos_ready_depth{cpu="cpu0"} 2`,
		`rtos_ready_depth_highwater{cpu="cpu0"} 2`,
		`resp_ps_bucket{task="a",le="10"} 1`,
		`resp_ps_bucket{task="a",le="20"} 2`,
		`resp_ps_bucket{task="a",le="+Inf"} 3`,
		`resp_ps_sum{task="a"} 119`,
		`resp_ps_count{task="a"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help text").Inc()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "c_total"`, `"kind": "counter"`, `"value": 1`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("JSON missing %q\n%s", want, b.String())
		}
	}
}

func TestTimeBucketsAscending(t *testing.T) {
	b := TimeBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %d <= %d", i, b[i], b[i-1])
		}
	}
}

// TestRecordPathAllocationFree pins the zero-allocation guarantee of the
// record path: with instruments registered up front, Inc/Add/Set/Observe
// must never touch the heap.
func TestRecordPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", TimeBuckets())
	var v int64
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(v)
		g.Add(1)
		h.Observe(v * 1_000_000)
		v++
	}); avg > 0 {
		t.Errorf("record path allocates %.2f objects per round, want 0", avg)
	}
}
