package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func svgFixture() *Recorder {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 0
	r.TaskState("task<1>", "cpu", StateRunning)
	clk.now = 40 * sim.Us
	r.TaskState("task<1>", "cpu", StateReady)
	clk.now = 60 * sim.Us
	r.TaskState("task<1>", "cpu", StateRunning)
	clk.now = 100 * sim.Us
	r.TaskState("task<1>", "cpu", StateWaiting)
	r.Overhead("cpu", "task<1>", OverheadContextSave, 100*sim.Us, 105*sim.Us)
	clk.now = 50 * sim.Us
	r.Access("task<1>", "ev&co", AccessSignal)
	return r
}

func TestWriteSVG(t *testing.T) {
	r := svgFixture()
	var b strings.Builder
	if err := r.WriteSVG(&b, SVGOptions{End: 120 * sim.Us, ShowAccesses: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`<svg xmlns="http://www.w3.org/2000/svg"`,
		"</svg>",
		"task&lt;1&gt;",            // escaped task label
		svgStateFill[StateRunning], // running segment colour
		svgStateFill[StateReady],
		svgStateFill[StateOverhead],
		"ev&amp;co",      // escaped access target in tooltip
		"TimeLine 0s",    // header
		"running</text>", // legend
	} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if strings.Count(out, "<rect") < 5 {
		t.Errorf("suspiciously few rects:\n%s", out)
	}
}

func TestWriteSVGEmptyWindowErrors(t *testing.T) {
	r := NewRecorder(func() sim.Time { return 0 })
	r.TaskState("t", "cpu", StateRunning)
	for _, opts := range []SVGOptions{
		{Start: 10 * sim.Us, End: 10 * sim.Us},
		{Start: 10 * sim.Us, End: 5 * sim.Us},
	} {
		var b strings.Builder
		if err := r.WriteSVG(&b, opts); err == nil {
			t.Errorf("window [%v, %v]: expected error", opts.Start, opts.End)
		}
	}
}

// A trace that ends at t=0 (a run that failed before time advanced) renders
// an empty chart: header, task rows and legend, no grid and no segments.
func TestWriteSVGEmptyTrace(t *testing.T) {
	r := NewRecorder(func() sim.Time { return 0 })
	r.TaskState("t", "cpu", StateRunning)
	r.Access("t", "ev", AccessSignal)
	var b strings.Builder
	if err := r.WriteSVG(&b, SVGOptions{ShowAccesses: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"TimeLine 0s .. 0s", ">t</text>", "running</text>", "</svg>"} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "<title>") {
		t.Errorf("empty chart drew content:\n%s", out)
	}
}

func TestWriteSVGNilRecorder(t *testing.T) {
	var r *Recorder
	if err := r.WriteSVG(nil, SVGOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestXMLEscape(t *testing.T) {
	if got := xmlEscape(`a<b>&"c`); got != "a&lt;b&gt;&amp;&quot;c" {
		t.Fatalf("xmlEscape = %q", got)
	}
}
