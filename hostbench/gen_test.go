package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"repro/internal/batch"
	"repro/internal/scenario"
)

// generated names one seeded input generator; its output for a seed is one
// or more documents.
type generated struct {
	name string
	gen  func(seed uint64) [][]byte
}

var generators = []generated{
	{"long-soc", func(s uint64) [][]byte { return [][]byte{render(socModel(s, false), spelling{})} }},
	{"sharded", func(s uint64) [][]byte { return [][]byte{render(socModel(s, true), spelling{})} }},
	{"sweep", func(s uint64) [][]byte {
		base, spec := sweepInputs(s)
		return [][]byte{render(base, spelling{}), spec}
	}},
	{"daemon-hot", func(s uint64) [][]byte { return [][]byte{render(daemonJobModel(s, streamHot, 3), spelling{})} }},
	{"daemon-fresh", func(s uint64) [][]byte { return [][]byte{render(daemonJobModel(s, streamFresh, 3), spelling{})} }},
	{"daemon-sweep", func(s uint64) [][]byte {
		base, spec := daemonSweepSpec(s, 3)
		return [][]byte{base, spec}
	}},
}

// hashOf is the canonical content hash of a scenario document, or of a sweep
// spec (which has no canonical form of its own) the bytes.
func hashOf(t *testing.T, doc []byte) string {
	t.Helper()
	if h, err := scenario.HashBytes(doc); err == nil {
		return h
	}
	if _, err := batch.ParseSpec(doc); err != nil {
		t.Fatalf("neither a scenario nor a sweep spec: %v\n%s", err, doc)
	}
	return string(doc)
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range generators {
		t.Run(g.name, func(t *testing.T) {
			a, b := g.gen(7), g.gen(7)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("document %d: the same seed gave different bytes", i)
				}
				if hashOf(t, a[i]) != hashOf(t, b[i]) {
					t.Fatalf("document %d: the same seed gave different hashes", i)
				}
			}
			seen := map[string]uint64{}
			for seed := uint64(1); seed <= 8; seed++ {
				h := hashOf(t, g.gen(seed)[0])
				if prev, ok := seen[h]; ok {
					t.Fatalf("seeds %d and %d gave the same hash", prev, seed)
				}
				seen[h] = seed
			}
		})
	}
}

func TestRespellingsShareOneHash(t *testing.T) {
	doc := socModel(3, false)
	want := hashOf(t, render(doc, spelling{}))
	spelled := respellings(doc, 3, 8)
	distinct := map[string]bool{}
	for i, s := range spelled {
		distinct[string(s)] = true
		if got := hashOf(t, s); got != want {
			t.Fatalf("respelling %d hashes to %s, want %s", i, got, want)
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("respellings are all the same bytes")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository root
// declares exactly the metrics, with the units, that the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
}
