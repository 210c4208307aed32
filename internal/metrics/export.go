package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/jsonfmt"
)

// BucketSnapshot is one histogram bucket in a snapshot: the number of
// observations at or below UpperBound (non-cumulative; the exporter
// cumulates for Prometheus).
type BucketSnapshot struct {
	UpperBound int64  `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count    uint64           `json:"count"`
	Sum      int64            `json:"sum"`
	Min      int64            `json:"min"`
	Max      int64            `json:"max"`
	Mean     float64          `json:"mean"`
	Buckets  []BucketSnapshot `json:"buckets"`
	Overflow uint64           `json:"overflow"`
}

// MetricSnapshot is the frozen state of one instrument.
type MetricSnapshot struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`

	// Value is the counter count or gauge value, always emitted so a zero
	// counter stays distinguishable from an absent one; HighWater
	// accompanies gauges.
	Value     int64              `json:"value"`
	HighWater int64              `json:"highWater,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot is the frozen state of a whole registry, in registration order.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot freezes the current state of every registered metric. It is safe
// to take mid-run, between simulation steps, and allocates only the snapshot
// itself (never mutating instrument state).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Metrics = make([]MetricSnapshot, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms := MetricSnapshot{Name: m.name, Kind: m.kind.String(), Help: m.help, Labels: m.labels}
		switch m.kind {
		case KindCounter:
			ms.Value = int64(m.counter.Value())
		case KindGauge:
			ms.Value = m.gauge.Value()
			ms.HighWater = m.gauge.HighWater()
		case KindHistogram:
			h := &m.hist
			hs := &HistogramSnapshot{
				Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
				Overflow: h.counts[len(h.bounds)],
			}
			hs.Buckets = make([]BucketSnapshot, len(h.bounds))
			for i, b := range h.bounds {
				hs.Buckets[i] = BucketSnapshot{UpperBound: b, Count: h.counts[i]}
			}
			ms.Histogram = hs
		}
		s.Metrics = append(s.Metrics, ms)
	}
	return s
}

// Get returns the snapshot of the named metric (first label-set match wins
// when name is ambiguous), and false when absent.
func (s Snapshot) Get(name string) (MetricSnapshot, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

// WriteJSON writes the registry snapshot as an indented JSON document: the
// bytes json.Encoder with a two-space indent gives Snapshot, written by hand
// straight from the instruments.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{\n  \"metrics\": null\n}\n")
		return err
	}
	size := 32
	for _, m := range r.metrics {
		size += metricJSONBytes + len(m.name) + len(m.help)
		if len(m.labels) > 0 {
			size += labelsJSONBytes
		}
		for _, l := range m.labels {
			size += labelJSONBytes + len(l.Name) + len(l.Value)
		}
		if m.kind == KindHistogram {
			size += histogramJSONBytes + len(m.hist.bounds)*bucketJSONBytes
		}
	}
	return jsonfmt.Emit(w, size, r.appendJSON)
}

// Sizes of the fixed parts of WriteJSON's layout, rounded up from the
// bytes they take with 19-digit numbers: one metric, its labels array,
// each label, a histogram object and each of its buckets.
const (
	metricJSONBytes    = 160
	labelsJSONBytes    = 32
	labelJSONBytes     = 64
	histogramJSONBytes = 320
	bucketJSONBytes    = 112
)

// appendJSON appends the document WriteJSON writes. Every member is
// written at its depth with encoding/json's omitempty rules: help and
// labels when non-empty, highWater when non-zero, histogram on histograms.
func (r *Registry) appendJSON(b []byte) []byte {
	b = append(b, "{\n  \"metrics\": ["...)
	for i, m := range r.metrics {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonfmt.AppendString(append(b, "\n    {\n      \"name\": "...), m.name)
		b = jsonfmt.AppendString(append(b, ",\n      \"kind\": "...), m.kind.String())
		if m.help != "" {
			b = jsonfmt.AppendString(append(b, ",\n      \"help\": "...), m.help)
		}
		if len(m.labels) > 0 {
			b = append(b, ",\n      \"labels\": ["...)
			for j, l := range m.labels {
				if j > 0 {
					b = append(b, ',')
				}
				b = jsonfmt.AppendString(append(b, "\n        {\n          \"name\": "...), l.Name)
				b = jsonfmt.AppendString(append(b, ",\n          \"value\": "...), l.Value)
				b = append(b, "\n        }"...)
			}
			b = append(b, "\n      ]"...)
		}
		var value, highWater int64
		switch m.kind {
		case KindCounter:
			value = int64(m.counter.Value())
		case KindGauge:
			value, highWater = m.gauge.Value(), m.gauge.HighWater()
		}
		b = strconv.AppendInt(append(b, ",\n      \"value\": "...), value, 10)
		if highWater != 0 {
			b = strconv.AppendInt(append(b, ",\n      \"highWater\": "...), highWater, 10)
		}
		if m.kind == KindHistogram {
			b = m.hist.appendJSON(append(b, ",\n      \"histogram\": "...))
		}
		b = append(b, "\n    }"...)
	}
	if len(r.metrics) > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "]\n}\n"...)
}

// appendJSON appends the histogram's HistogramSnapshot object at the depth
// of a metric's members.
func (h *Histogram) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, "{\n        \"count\": "...), h.Count(), 10)
	b = strconv.AppendInt(append(b, ",\n        \"sum\": "...), h.Sum(), 10)
	b = strconv.AppendInt(append(b, ",\n        \"min\": "...), h.Min(), 10)
	b = strconv.AppendInt(append(b, ",\n        \"max\": "...), h.Max(), 10)
	b = jsonfmt.AppendFloat(append(b, ",\n        \"mean\": "...), h.Mean())
	b = append(b, ",\n        \"buckets\": ["...)
	for i, bound := range h.bounds {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, "\n          {\n            \"le\": "...), bound, 10)
		b = strconv.AppendUint(append(b, ",\n            \"count\": "...), h.counts[i], 10)
		b = append(b, "\n          }"...)
	}
	if len(h.bounds) > 0 {
		b = append(b, "\n        "...)
	}
	b = strconv.AppendUint(append(b, "],\n        \"overflow\": "...), h.counts[len(h.bounds)], 10)
	return append(b, "\n      }"...)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, cumulative _bucket
// series plus _sum and _count for histograms. Gauges additionally expose
// their high-water mark as a companion `<name>_highwater` gauge.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fam := range r.families() {
		head := fam[0]
		if head.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", head.name, head.help); err != nil {
				return err
			}
		}
		typ := "counter"
		switch head.kind {
		case KindGauge:
			typ = "gauge"
		case KindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", head.name, typ); err != nil {
			return err
		}
		for _, m := range fam {
			if err := writePromMetric(w, m); err != nil {
				return err
			}
		}
	}
	// High-water companions come after the main families so each family
	// block stays contiguous.
	for _, fam := range r.families() {
		if fam[0].kind != KindGauge {
			continue
		}
		name := fam[0].name + "_highwater"
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
			return err
		}
		for _, m := range fam {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, promLabels(m.labels, "", 0), m.gauge.HighWater()); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromMetric writes one instrument's sample lines.
func writePromMetric(w io.Writer, m *metric) error {
	switch m.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, promLabels(m.labels, "", 0), m.counter.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, promLabels(m.labels, "", 0), m.gauge.Value())
		return err
	case KindHistogram:
		h := m.hist
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				m.name, promLabels(m.labels, "le", b), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, promLabelsInf(m.labels), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", m.name, promLabels(m.labels, "", 0), h.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, promLabels(m.labels, "", 0), h.Count())
		return err
	}
	return nil
}

// promLabels renders a label set, optionally appending an le bucket label.
func promLabels(labels []Label, le string, bound int64) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		b.WriteString(strconv.FormatInt(bound, 10))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promLabelsInf renders a label set with le="+Inf".
func promLabelsInf(labels []Label) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`",`)
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}

// escapeLabel escapes backslash, double-quote and newline per the text
// exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
