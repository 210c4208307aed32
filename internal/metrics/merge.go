package metrics

import "fmt"

// Merge folds other's instruments into r, registering any that r lacks:
// counters add, gauges add their values and keep the larger high-water mark,
// histograms add bucket counts and combine count/sum/min/max. The sharded
// parallel engine uses it to aggregate per-shard registries into the one
// registry the metrics artifacts render; merging registries whose shared
// histograms were registered with different bucket bounds is a model bug and
// panics.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	for _, m := range other.metrics {
		switch m.kind {
		case KindCounter:
			r.Counter(m.name, m.help, m.labels...).Add(m.counter.v)
		case KindGauge:
			g := r.Gauge(m.name, m.help, m.labels...)
			g.v += m.gauge.v
			if m.gauge.hw > g.hw {
				g.hw = m.gauge.hw
			}
			if g.v > g.hw {
				g.hw = g.v
			}
		case KindHistogram:
			h := r.Histogram(m.name, m.help, m.hist.bounds, m.labels...)
			if len(h.counts) != len(m.hist.counts) {
				panic(fmt.Sprintf("metrics: merging histogram %q with mismatched buckets", m.name))
			}
			if m.hist.count > 0 {
				if h.count == 0 || m.hist.min < h.min {
					h.min = m.hist.min
				}
				if h.count == 0 || m.hist.max > h.max {
					h.max = m.hist.max
				}
				h.count += m.hist.count
				h.sum += m.hist.sum
			}
			for i, c := range m.hist.counts {
				h.counts[i] += c
			}
		}
	}
}
