package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// writeJSONReference is the encoding/json implementation of WriteJSON: the
// snapshot marshalled with a two-space indent. The hand-written writer is
// held byte-identical to it.
func writeJSONReference(r *Registry, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSONReference exposes the reference writer to the corpus test in
// package metrics_test, which needs the scenario package to build its
// registries.
var WriteJSONReference = writeJSONReference

// checkJSONReference fails the test unless WriteJSON and the encoding/json
// reference write the same bytes for r.
func checkJSONReference(t *testing.T, r *Registry) {
	t.Helper()
	var got, want bytes.Buffer
	if err := r.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := writeJSONReference(r, &want); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("WriteJSON differs from the encoding/json reference:\n got: %q\nwant: %q", got.String(), want.String())
	}
}

func TestWriteJSONMatchesReference(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Registry
	}{
		{
			name:  "nil registry",
			build: func() *Registry { return nil },
		},
		{
			name:  "empty registry",
			build: NewRegistry,
		},
		{
			name: "zero counter",
			build: func() *Registry {
				r := NewRegistry()
				r.Counter("c_total", "")
				return r
			},
		},
		{
			name: "counter with help and labels",
			build: func() *Registry {
				r := NewRegistry()
				r.Counter("c_total", "a counter", L("cpu", "p1"), L("task", "a")).Add(42)
				r.Counter("c_total", "a counter", L("cpu", "p2")).Inc()
				return r
			},
		},
		{
			name: "gauge with zero high-water",
			build: func() *Registry {
				r := NewRegistry()
				r.Gauge("g", "never raised").Set(-5)
				return r
			},
		},
		{
			name: "gauge with non-zero high-water",
			build: func() *Registry {
				r := NewRegistry()
				g := r.Gauge("depth", "queue depth", L("queue", "q"))
				g.Set(9)
				g.Add(-7)
				return r
			},
		},
		{
			name: "help text and labels that need escaping",
			build: func() *Registry {
				r := NewRegistry()
				r.Counter("esc", "a <b> & \"c\"\\ line\u2028sep\u2029para bad\xffutf8 tab\t\x01 h\u00e9llo",
					L("k<&>", "v\u2028\xc3")).Inc()
				r.Gauge("esc_g", "\xed\xa0\x80", L("", "")).Set(1)
				return r
			},
		},
		{
			name: "histogram with overflow",
			build: func() *Registry {
				r := NewRegistry()
				h := r.Histogram("lat_ps", "latency", []int64{10, 20, 50}, L("task", "t"))
				for _, v := range []int64{5, 10, 11, 60, 60, 19, -3} {
					h.Observe(v)
				}
				return r
			},
		},
		{
			name: "empty histograms",
			build: func() *Registry {
				r := NewRegistry()
				r.Histogram("none_ps", "", TimeBuckets())
				r.Histogram("nobounds", "", nil).Observe(7)
				return r
			},
		},
		{
			name: "histogram mean far from an integer",
			build: func() *Registry {
				r := NewRegistry()
				h := r.Histogram("big", "", []int64{1})
				h.Observe(1 << 62)
				h.Observe(1)
				h.Observe(2)
				r.Histogram("third", "", []int64{1}).Observe(1)
				r.Histogram("third", "", []int64{1}).Observe(0)
				r.Histogram("third", "", []int64{1}).Observe(0)
				return r
			},
		},
		{
			name: "mixed kinds in registration order",
			build: func() *Registry {
				r := NewRegistry()
				r.Gauge("b", "").Set(3)
				r.Histogram("c", "h", []int64{1, 2}).Observe(2)
				r.Counter("a", "").Add(1 << 63)
				r.Gauge("b", "", L("x", "y")).Set(0)
				return r
			},
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkJSONReference(t, tt.build())
		})
	}
}

// TestWriteJSONToPlainWriter covers the destination without Grow: the
// document arrives in one write.
func TestWriteJSONToPlainWriter(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", "help", TimeBuckets(), L("task", "t")).Observe(3)
	var want bytes.Buffer
	if err := writeJSONReference(r, &want); err != nil {
		t.Fatal(err)
	}
	w := &countingWriter{}
	if err := r.WriteJSON(w); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || w.buf.String() != want.String() {
		t.Errorf("%d writes of %q, want one write of %q", w.writes, w.buf.String(), want.String())
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}
