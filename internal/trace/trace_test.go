package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// fakeClock is a settable timestamp source.
type fakeClock struct{ now sim.Time }

func (f *fakeClock) Now() sim.Time { return f.now }

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.TaskState("t", "cpu", StateRunning)
	r.Overhead("cpu", "t", OverheadScheduling, 0, 5)
	r.Access("a", "o", AccessSignal)
	r.Depth("o", 1, 2)
	if r.Tasks() != nil || r.Objects() != nil || r.End() != 0 {
		t.Fatal("nil recorder returned data")
	}
	if r.RenderTimeline(TimelineOptions{}) != "" || r.RenderChronology() != "" {
		t.Fatal("nil recorder rendered output")
	}
	if err := r.WriteCSV(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteVCD(nil); err != nil {
		t.Fatal(err)
	}
	st := r.ComputeStats(0)
	if len(st.Tasks) != 0 {
		t.Fatal("nil recorder computed stats")
	}
}

func TestSegmentsReconstruction(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	set := func(at sim.Time, s TaskState) {
		clk.now = at
		r.TaskState("t", "cpu", s)
	}
	set(0, StateReady)
	set(10*sim.Us, StateRunning)
	set(30*sim.Us, StateWaiting)
	set(50*sim.Us, StateReady)
	set(50*sim.Us, StateRunning) // zero-length Ready collapses
	set(70*sim.Us, StateTerminated)

	segs := r.Segments("t", 100*sim.Us)
	want := []Segment{
		{"t", StateReady, 0, 0, 10 * sim.Us},
		{"t", StateRunning, 0, 10 * sim.Us, 30 * sim.Us},
		{"t", StateWaiting, 0, 30 * sim.Us, 50 * sim.Us},
		{"t", StateRunning, 0, 50 * sim.Us, 70 * sim.Us},
		{"t", StateTerminated, 0, 70 * sim.Us, 100 * sim.Us},
	}
	if len(segs) != len(want) {
		t.Fatalf("segments = %+v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

func TestSegmentsWindowClamp(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 0
	r.TaskState("t", "cpu", StateRunning)
	clk.now = 100 * sim.Us
	r.TaskState("t", "cpu", StateWaiting)

	segs := r.Segments("t", 40*sim.Us)
	if len(segs) != 1 || segs[0].End != 40*sim.Us {
		t.Fatalf("segments = %+v", segs)
	}
	if got := r.Segments("unknown", 40*sim.Us); got != nil {
		t.Fatalf("unknown task segments = %+v", got)
	}
}

func TestStatsRatios(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	set := func(at sim.Time, s TaskState) {
		clk.now = at
		r.TaskState("t", "cpu", s)
	}
	set(0, StateRunning)
	set(40*sim.Us, StateReady)
	set(60*sim.Us, StateRunning)
	set(80*sim.Us, StateWaitingResource)

	st := r.ComputeStats(100 * sim.Us)
	ts, ok := st.TaskByName("t")
	if !ok {
		t.Fatal("task missing from stats")
	}
	if ts.Running != 60*sim.Us || ts.Ready != 20*sim.Us || ts.WaitingResource != 20*sim.Us {
		t.Fatalf("stats = %+v", ts)
	}
	if ts.ActivityRatio() != 0.6 || ts.PreemptedRatio() != 0.2 || ts.ResourceRatio() != 0.2 {
		t.Fatalf("ratios = %v %v %v", ts.ActivityRatio(), ts.PreemptedRatio(), ts.ResourceRatio())
	}
	if ts.Activations != 2 || ts.Preemptions != 1 {
		t.Fatalf("activations=%d preemptions=%d", ts.Activations, ts.Preemptions)
	}
	// State ratios partition the window (Overhead overlaps and is excluded).
	sum := ts.ActivityRatio() + ts.PreemptedRatio() + ts.WaitingRatio() +
		ts.ResourceRatio() + ratio(ts.Inactive, ts.Window)
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ratios sum to %v", sum)
	}
}

func TestProcessorStats(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 0
	r.TaskState("t", "cpu0", StateRunning)
	clk.now = 50 * sim.Us
	r.TaskState("t", "cpu0", StateTerminated)
	r.Overhead("cpu0", "t", OverheadContextSave, 50*sim.Us, 55*sim.Us)
	r.Overhead("cpu0", "", OverheadScheduling, 55*sim.Us, 60*sim.Us)
	r.Overhead("cpu0", "t", OverheadContextLoad, 60*sim.Us, 65*sim.Us)

	st := r.ComputeStats(100 * sim.Us)
	cs, ok := st.ProcessorByName("cpu0")
	if !ok {
		t.Fatal("processor missing")
	}
	if cs.Busy != 50*sim.Us || cs.Overhead != 15*sim.Us || cs.Idle != 35*sim.Us {
		t.Fatalf("processor stats = %+v", cs)
	}
	if cs.ContextSwitches != 1 {
		t.Fatalf("switches = %d", cs.ContextSwitches)
	}
}

func TestObjectStats(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 0
	r.Depth("q", 0, 2)
	clk.now = 10 * sim.Us
	r.Access("a", "q", AccessSend)
	r.Depth("q", 1, 2)
	clk.now = 30 * sim.Us
	r.Access("a", "q", AccessSend)
	r.Depth("q", 2, 2)
	clk.now = 50 * sim.Us
	r.Access("b", "q", AccessReceive)
	r.Depth("q", 1, 2)
	clk.now = 100 * sim.Us
	r.Access("b", "q", AccessReceive)
	r.Depth("q", 0, 2)

	st := r.ComputeStats(100 * sim.Us)
	os, ok := st.ObjectByName("q")
	if !ok {
		t.Fatal("object missing")
	}
	if os.Sends != 2 || os.Receives != 2 {
		t.Fatalf("counts = %+v", os)
	}
	// Busy (depth>0): 10..100 = 90us of 100us.
	if os.UtilizationRatio() != 0.9 {
		t.Fatalf("busy ratio = %v", os.UtilizationRatio())
	}
	// Weighted occupancy: (20us*0.5 + 20us*1 + 50us*0.5)/100us = 0.55.
	if os.Utilization < 0.549 || os.Utilization > 0.551 {
		t.Fatalf("utilization = %v", os.Utilization)
	}
}

func TestStatsString(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 0
	r.TaskState("t", "cpu0", StateRunning)
	r.Access("t", "ev", AccessSignal)
	clk.now = 10 * sim.Us
	r.TaskState("t", "cpu0", StateTerminated)
	out := r.ComputeStats(0).String()
	for _, want := range []string{"Tasks:", "Processors:", "Communications:", "t", "cpu0", "ev"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	set := func(at sim.Time, s TaskState) {
		clk.now = at
		r.TaskState("task", "cpu", s)
	}
	set(0, StateRunning)
	set(50*sim.Us, StateReady)
	set(80*sim.Us, StateRunning)
	clk.now = 100 * sim.Us
	r.Access("task", "ev", AccessSignal)

	out := r.RenderTimeline(TimelineOptions{End: 100 * sim.Us, Width: 10, ShowAccesses: true, Legend: true})
	if !strings.Contains(out, "task") {
		t.Fatalf("missing task row:\n%s", out)
	}
	// 10 columns of 10us: 5 running, 3 ready, 2 running.
	if !strings.Contains(out, "#####rrr##") {
		t.Fatalf("unexpected state row:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Fatalf("missing legend:\n%s", out)
	}
}

func TestRenderTimelineOverheadOverlay(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 0
	r.TaskState("t", "cpu", StateWaiting)
	r.Overhead("cpu", "t", OverheadContextLoad, 20*sim.Us, 40*sim.Us)
	clk.now = 40 * sim.Us
	r.TaskState("t", "cpu", StateRunning)
	out := r.RenderTimeline(TimelineOptions{End: 100 * sim.Us, Width: 10})
	if !strings.Contains(out, "--oo######") {
		t.Fatalf("overhead overlay wrong:\n%s", out)
	}
}

func TestRenderChronology(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 5 * sim.Us
	r.TaskState("t", "cpu", StateRunning)
	r.Access("t", "ev", AccessSignal)
	r.Overhead("cpu", "t", OverheadScheduling, 5*sim.Us, 10*sim.Us)
	out := r.RenderChronology()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("chronology lines = %d:\n%s", len(lines), out)
	}
	for _, want := range []string{"t -> running", "signal ev", "scheduling"} {
		if !strings.Contains(out, want) {
			t.Errorf("chronology missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = sim.Us
	r.TaskState("t", "cpu", StateRunning)
	r.Access("t", "q", AccessSend)
	r.Depth("q", 1, 4)
	r.Overhead("cpu", "t", OverheadContextSave, 0, sim.Us)
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "kind,at_ps") {
		t.Fatalf("bad header: %s", lines[0])
	}
	for _, want := range []string{"state,1000000,t,running,cpu", "access,1000000,t,send,q", "depth,1000000,q,1,4", "overhead,0,cpu,context-save,t,0,1000000"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestWriteVCD(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 0
	r.TaskState("task one", "cpu", StateReady)
	clk.now = 10 * sim.Us
	r.TaskState("task one", "cpu", StateRunning)
	r.Depth("q$x", 3, 4)
	var b strings.Builder
	if err := r.WriteVCD(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"$timescale 1ps $end",
		"$var wire 3 ! task_one $end",
		"$var wire 16 \" q_x $end",
		"$enddefinitions $end",
		"#0", "#10000000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vcd missing %q:\n%s", want, out)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if StateWaitingResource.String() != "waiting-resource" || TaskState(99).String() != "invalid" {
		t.Fatal("TaskState.String broken")
	}
	if OverheadContextSave.String() != "context-save" || OverheadKind(9).String() != "invalid" {
		t.Fatal("OverheadKind.String broken")
	}
	if AccessReceive.String() != "receive" || AccessKind(99).String() != "invalid" {
		t.Fatal("AccessKind.String broken")
	}
	for s := StateCreated; s <= StateTerminated; s++ {
		if s.Glyph() == '?' {
			t.Errorf("state %v has no glyph", s)
		}
	}
}

func TestEndComputation(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 10 * sim.Us
	r.TaskState("t", "c", StateRunning)
	r.Overhead("c", "t", OverheadScheduling, 20*sim.Us, 90*sim.Us)
	clk.now = 30 * sim.Us
	r.Access("t", "o", AccessRead)
	if r.End() != 90*sim.Us {
		t.Fatalf("End = %v, want 90us", r.End())
	}
}
