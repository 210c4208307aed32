package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jsonfmt"
	"repro/internal/sim"
)

// checkPerfettoReference fails the test unless WritePerfetto and the
// encoding/json reference write the same bytes for r.
func checkPerfettoReference(t testing.TB, r *Recorder, opts PerfettoOptions) {
	t.Helper()
	var got, want bytes.Buffer
	if err := r.WritePerfetto(&got, opts); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if err := writePerfettoReference(r, &want, opts); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.String(), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("Perfetto output differs from the encoding/json reference at byte %d:\n got: %q\nwant: %q",
			i, g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

func TestPerfettoMatchesReferenceEmpty(t *testing.T) {
	checkPerfettoReference(t, nil, PerfettoOptions{})
	checkPerfettoReference(t, nil, PerfettoOptions{Misses: []MissMark{{At: 3 * sim.Us, Task: "t"}}})
	checkPerfettoReference(t, NewRecorder(func() sim.Time { return 0 }), PerfettoOptions{})
}

// awkwardStrings exercise every escaping rule of encoding/json: quote,
// backslash, HTML characters, control bytes with and without short escapes,
// DEL, non-ASCII, U+2028/U+2029 and invalid UTF-8.
var awkwardStrings = []string{
	"", "plain", `quote"d`, `back\slash`, "<tag>&amp;", "tab\tnew\nline\r", "\b\f\x00\x01\x1f\x7f",
	"héllo ✓ 日本", "line\u2028sep\u2029para", "bad\xffutf8\xc3", "\xed\xa0\x80surrogate", "\xe2\x80",
	"core0", "a b",
}

// stringRecorder records one of everything the exporter renders, named by
// the given strings, at instants from the given base.
func stringRecorder(name, detail string, base sim.Time) (*Recorder, PerfettoOptions) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	at := func(d sim.Time) { clk.now = base + d }
	at(0)
	r.TaskStateOn(name, "cpu"+name, 0, StateReady)
	r.TaskStateOn("hw"+name, "", 0, StateRunning)
	at(1)
	r.TaskStateOn(name, "cpu"+name, 1, StateRunning)
	r.OverheadOn("cpu"+name, name, 1, OverheadContextLoad, base, base+1)
	r.OverheadOn("cpu"+name, "", 0, OverheadScheduling, base, base)
	at(1500)
	r.Fault(FaultInjected, name, name, detail)
	r.Fault(WatchdogFired, "nobody"+name, "", "")
	r.Migrate(name, "cpu"+name, 1, 0)
	r.TaskStateOn(name, "cpu"+name, 0, StateRunning)
	at(7_000_001)
	r.TaskStateOn(name, "cpu"+name, 0, StateWaiting)
	at(7_000_002)
	r.TaskStateOn(name, "cpu"+name, 0, StateRunning)
	at(9_999_999)
	r.Access(name, "q", AccessSend)
	return r, PerfettoOptions{Misses: []MissMark{{At: base + 1500, Task: name}, {At: base, Task: "ghost" + name}}}
}

func TestPerfettoMatchesReferenceStrings(t *testing.T) {
	for _, name := range awkwardStrings {
		for _, detail := range awkwardStrings {
			r, opts := stringRecorder(name, detail, 0)
			checkPerfettoReference(t, r, opts)
		}
	}
}

// TestPerfettoMatchesReferenceLargeInstants covers instants whose
// microsecond value needs more than 15 significant digits, where the writer
// leaves its exact decimal path for encoding/json's float formatting, and
// negative durations.
func TestPerfettoMatchesReferenceLargeInstants(t *testing.T) {
	for _, base := range []sim.Time{1e15 - 2, 1e15, 123456789012345678, 1<<62 + 12345, 9_007_199_254_740_993} {
		r, opts := stringRecorder("t", "d", base)
		checkPerfettoReference(t, r, opts)
	}
	r := NewRecorder(func() sim.Time { return 0 })
	r.Overhead("cpu", "t", OverheadContextSave, 5*sim.Us, 3*sim.Us)
	checkPerfettoReference(t, r, PerfettoOptions{})
}

// TestAppendUsecMatchesJSONFloat checks the exact-decimal path against the
// float formatting it stands in for, across magnitudes and on both sides of
// its 1e15 bound.
func TestAppendUsecMatchesJSONFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(v sim.Time) {
		if got, want := string(appendUsec(nil, v)), string(jsonfmt.AppendFloat(nil, usec(v))); got != want {
			t.Fatalf("appendUsec(%d) = %s, encoding/json gives %s", v, got, want)
		}
	}
	for _, v := range []sim.Time{0, 1, 9, 10, 999_999, 1_000_000, 1_000_001, 1e15 - 1, 1e15, 1e15 + 1, -1, -1_500_000} {
		check(v)
	}
	for i := 0; i < 200_000; i++ {
		digits := 1 + rng.Intn(18)
		check(sim.Time(rng.Int63n(pow10(digits))))
	}
}

// TestPerfettoOrderMatchesComparisonSort holds the radix order to the
// (ts, build index) comparison sort it replaced, on randomized event sets:
// nearly sorted runs as the build passes produce them, many same-ts ties,
// ts = 0, key ranges of every bit length and offset, and, in two rounds of
// three, instants at and above 1e15 ps, where distinct picoseconds can
// share one float64 timestamp, with negative instants in one of them. The
// rounds with every instant in [0, 1e15) ps sort on the picoseconds.
func TestPerfettoOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bases := []sim.Time{0, 1e15 - 500, 1e15, 9_007_199_254_740_000, 1 << 62}
	for round := 0; round < 400; round++ {
		n := rng.Intn(300)
		if round%50 == 0 {
			n = 5000 + rng.Intn(5000)
		}
		base := bases[round%len(bases)]
		mode := round % 3 // 0: every instant in [0, 1e15) ps; 1: none negative
		spread := int64(1) << rng.Intn(48)
		first := sim.Time(0) // the restart instant; offset from 0 in a quarter of the rounds
		if round%4 == 3 {
			first = base + sim.Time(rng.Int63n(1<<40))
		}
		events := make([]perfettoEvent, n)
		at := first
		for i := range events {
			switch rng.Intn(8) {
			case 0:
				at = first
			case 1:
				at = base + sim.Time(rng.Int63n(spread)) // out of order
			case 2:
				if mode == 2 {
					at = -sim.Time(rng.Int63n(spread)) // before the epoch
				}
			case 3: // a tie with the previous event
			default:
				at += sim.Time(rng.Int63n(spread)) // the next in a nearly sorted run
			}
			events[i].at = at
			if mode == 0 {
				events[i].at = at % 1e15
			}
		}
		got, want := perfettoOrder(events), perfettoOrderReference(events)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d (%d events from %d): radix order differs from the comparison sort", round, n, base)
		}
	}
	if got := perfettoOrder(nil); len(got) != 0 {
		t.Fatalf("order of no events = %v", got)
	}
}

func pow10(n int) int64 {
	v, _ := strconv.ParseInt("1"+strings.Repeat("0", n), 10, 64)
	return v
}

// FuzzPerfettoMatchesReference runs its seeds under go test; `go test -fuzz
// FuzzPerfettoMatchesReference ./internal/trace` explores further.
func FuzzPerfettoMatchesReference(f *testing.F) {
	for i, s := range awkwardStrings {
		f.Add(s, awkwardStrings[(i+3)%len(awkwardStrings)], int64(i)*1_234_567)
	}
	f.Fuzz(func(t *testing.T, name, detail string, base int64) {
		if base < 0 || base > 1<<62 {
			return
		}
		r, opts := stringRecorder(name, detail, sim.Time(base))
		checkPerfettoReference(t, r, opts)
	})
}

// TestPerfettoTrailingSliceOnce pins the end-of-trace slice: a task that is
// still running at the end gets exactly one closing slice, however often it
// was dispatched before.
func TestPerfettoTrailingSliceOnce(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	for i := 0; i < 5; i++ {
		clk.now = sim.Time(2*i) * sim.Us
		r.TaskState("t", "cpu", StateRunning)
		clk.now = sim.Time(2*i+1) * sim.Us
		r.TaskState("t", "cpu", StateReady)
	}
	clk.now = 10 * sim.Us
	r.TaskState("t", "cpu", StateRunning)
	r.Overhead("cpu", "", OverheadScheduling, 20*sim.Us, 21*sim.Us)
	var buf bytes.Buffer
	if err := r.WritePerfetto(&buf, PerfettoOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"name": "t"`); n != 6 {
		t.Errorf("%d Running slices of t, want 6 (5 closed + 1 trailing)", n)
	}
}
