// Package metrics is a lightweight, allocation-free metrics registry for the
// simulation: counters, gauges with high-water tracking, and fixed-bucket
// histograms.
//
// Design constraints, in order:
//
//  1. The record path must not allocate. Instruments are plain structs whose
//     update methods are field increments; registration (which allocates) is
//     done once at model construction, never on a hot path. This preserves
//     the zero-allocs-per-context-switch guarantee of the simulation kernel
//     and RTOS model with metrics collection always on.
//  2. Instruments are nil-safe, like trace.Recorder: every method on a nil
//     instrument is a no-op, so model code can record unconditionally.
//  3. Snapshots are cheap and can be taken mid-run (between Run steps of a
//     single-threaded simulation); exports are deterministic — metrics
//     appear in registration order, so two identical runs produce
//     byte-identical JSON and Prometheus text.
//
// Values are int64/uint64; time-valued metrics hold picoseconds (the unit of
// sim.Time) and say so in their name (`…_ps`). The package deliberately
// imports nothing from the rest of the repository but the leaf JSON
// appenders of internal/jsonfmt, so every layer (sim, rtos, batch) can
// depend on it without cycles.
package metrics

import (
	"fmt"
	"strings"
)

// Label is one name=value dimension of a metric (e.g. task="control").
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil counter discards updates.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous int64 value that additionally tracks its
// high-water mark (the largest value ever set). A nil gauge discards
// updates.
type Gauge struct {
	v  int64
	hw int64
}

// Set stores v and raises the high-water mark if exceeded.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.hw {
		g.hw = v
	}
}

// Add adjusts the value by d (negative allowed).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// HighWater returns the largest value the gauge ever held.
func (g *Gauge) HighWater() int64 {
	if g == nil {
		return 0
	}
	return g.hw
}

// Histogram is a fixed-bucket distribution of int64 observations. Bucket
// bounds are upper bounds in ascending order; observations above the last
// bound land in an implicit +Inf bucket. Observe never allocates. A nil
// histogram discards observations.
type Histogram struct {
	bounds []int64  // ascending upper bounds (inclusive)
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; typical bucket counts are
	// small (≈20) so this costs a handful of comparisons and no allocation.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Kind classifies a registered metric.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "invalid"
}

// metric is one registered instrument, held by value: the instrument of the
// metric's kind is the one in use.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   Kind

	counter Counter
	gauge   Gauge
	hist    Histogram
}

// Registry holds named instruments. It is not safe for concurrent use: each
// simulation owns a private registry, mirroring the one-kernel-per-goroutine
// model of package batch. Registration is idempotent — asking twice for the
// same (name, labels) returns the same instrument — so model layers can
// share instruments without coordination.
type Registry struct {
	metrics []*metric
	index   map[string]*metric
	// labels backs every metric's label copy, so registering a labeled
	// metric does not cost an allocation of its own.
	labels []Label
}

// registrySizeHint presizes a registry for the kernel's instruments plus one
// processor's, so a small model registers them without regrowing.
const registrySizeHint = 32

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make([]*metric, 0, registrySizeHint),
		index:   make(map[string]*metric, registrySizeHint),
		labels:  make([]Label, 0, registrySizeHint),
	}
}

// key builds the identity of a (name, labels) pair.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	n := len(name)
	for _, l := range labels {
		n += 2 + len(l.Name) + len(l.Value)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\x00')
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup finds or registers a metric slot.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label) *metric {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	if m, ok := r.index[k]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %q re-registered as %v, was %v", name, kind, m.kind))
		}
		return m
	}
	r.labels = append(r.labels, labels...)
	n := len(r.labels)
	m := &metric{name: name, help: help, labels: r.labels[n-len(labels) : n : n], kind: kind}
	r.metrics = append(r.metrics, m)
	r.index[k] = m
	return m
}

// Counter finds or registers the counter with the given name and labels. A
// nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.lookup(name, help, KindCounter, labels)
	if m == nil {
		return nil
	}
	return &m.counter
}

// Gauge finds or registers the gauge with the given name and labels. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.lookup(name, help, KindGauge, labels)
	if m == nil {
		return nil
	}
	return &m.gauge
}

// Histogram finds or registers the histogram with the given name, bucket
// upper bounds (ascending; copied) and labels. A nil registry returns a nil
// (no-op) histogram. Re-registration keeps the original buckets.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	m := r.lookup(name, help, KindHistogram, labels)
	if m == nil {
		return nil
	}
	if m.hist.counts == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %q bucket bounds not ascending", name))
			}
		}
		m.hist.bounds = append([]int64(nil), bounds...)
		m.hist.counts = make([]uint64, len(bounds)+1)
	}
	return &m.hist
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.metrics)
}

// TimeBuckets is a general-purpose set of histogram bounds for time-valued
// (picosecond) observations: a 1–2–5 decade ladder from 1 µs to 1 s. It
// suits the response-time and jitter distributions of millisecond-scale
// real-time task sets.
func TimeBuckets() []int64 {
	const us = int64(1_000_000) // 1 µs in ps
	bounds := make([]int64, 0, 6*3+1)
	for _, decade := range []int64{1, 10, 100, 1_000, 10_000, 100_000} {
		for _, step := range []int64{1, 2, 5} {
			bounds = append(bounds, step*decade*us)
		}
	}
	return append(bounds, 1_000_000*us) // 1 s
}

// families groups the registered metrics by name, preserving registration
// order inside each family and ordering families by the registration order
// of their first member. Exports iterate families so Prometheus text keeps
// each family contiguous as the exposition format requires.
func (r *Registry) families() [][]*metric {
	if r == nil {
		return nil
	}
	order := map[string]int{}
	var names []string
	for _, m := range r.metrics {
		if _, ok := order[m.name]; !ok {
			order[m.name] = len(names)
			names = append(names, m.name)
		}
	}
	fams := make([][]*metric, len(names))
	for _, m := range r.metrics {
		i := order[m.name]
		fams[i] = append(fams[i], m)
	}
	return fams
}
