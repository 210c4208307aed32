package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestWriteJSON(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 5 * sim.Us
	r.TaskState("t", "cpu", StateRunning)
	r.Access("t", "q", AccessSend)
	r.Depth("q", 2, 4)
	r.Overhead("cpu", "t", OverheadContextLoad, 0, 5*sim.Us)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Tasks   []string `json:"tasks"`
		Objects []string `json:"objects"`
		States  []struct {
			AtPs  sim.Time `json:"at_ps"`
			Task  string   `json:"task"`
			State string   `json:"state"`
		} `json:"states"`
		Overheads []struct {
			Kind  string   `json:"kind"`
			EndPs sim.Time `json:"end_ps"`
		} `json:"overheads"`
		Accesses []struct {
			Kind string `json:"kind"`
		} `json:"accesses"`
		Depths []struct {
			Depth    int `json:"depth"`
			Capacity int `json:"capacity"`
		} `json:"depths"`
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(decoded.Tasks) != 1 || decoded.Tasks[0] != "t" {
		t.Fatalf("tasks = %v", decoded.Tasks)
	}
	if len(decoded.States) != 1 || decoded.States[0].State != "running" || decoded.States[0].AtPs != 5*sim.Us {
		t.Fatalf("states = %+v", decoded.States)
	}
	if len(decoded.Overheads) != 1 || decoded.Overheads[0].Kind != "context-load" {
		t.Fatalf("overheads = %+v", decoded.Overheads)
	}
	if len(decoded.Accesses) != 1 || decoded.Accesses[0].Kind != "send" {
		t.Fatalf("accesses = %+v", decoded.Accesses)
	}
	if len(decoded.Depths) != 1 || decoded.Depths[0].Depth != 2 || decoded.Depths[0].Capacity != 4 {
		t.Fatalf("depths = %+v", decoded.Depths)
	}
}

// failingWriter errors after n bytes, for exercising export error paths.
type failingWriter struct{ left int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errWriteFailed
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, errWriteFailed
	}
	return n, nil
}

var errWriteFailed = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "injected write failure" }

func TestExportsPropagateWriteErrors(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = sim.Us
	r.TaskState("t", "cpu", StateRunning)
	r.Access("t", "q", AccessSend)
	r.Depth("q", 1, 2)
	r.Overhead("cpu", "t", OverheadScheduling, 0, sim.Us)

	type export struct {
		name string
		run  func(w *failingWriter) error
	}
	exports := []export{
		{"csv", func(w *failingWriter) error { return r.WriteCSV(w) }},
		{"vcd", func(w *failingWriter) error { return r.WriteVCD(w) }},
		{"json", func(w *failingWriter) error { return r.WriteJSON(w) }},
		{"svg", func(w *failingWriter) error { return r.WriteSVG(w, SVGOptions{End: sim.Ms}) }},
		{"perfetto", func(w *failingWriter) error { return r.WritePerfetto(w, PerfettoOptions{}) }},
	}
	for _, e := range exports {
		// Fail at several truncation points; every one must surface an error.
		for _, budget := range []int{0, 10, 100} {
			if err := e.run(&failingWriter{left: budget}); err == nil {
				t.Errorf("%s export with %d-byte writer returned no error", e.name, budget)
			}
		}
	}
}

func TestAccessGlyphsDistinct(t *testing.T) {
	kinds := []AccessKind{
		AccessSignal, AccessWait, AccessWakeup, AccessSend, AccessReceive,
		AccessRead, AccessWrite, AccessLock, AccessUnlock, AccessBlocked,
	}
	seen := map[byte]AccessKind{}
	for _, k := range kinds {
		g := accessGlyph(k)
		if g == '?' {
			t.Errorf("kind %v has no glyph", k)
		}
		if prev, dup := seen[g]; dup {
			t.Errorf("glyph %q shared by %v and %v", g, prev, k)
		}
		seen[g] = k
	}
	if accessGlyph(AccessKind(99)) != '?' {
		t.Error("unknown kind should render '?'")
	}
}

func TestTimelineAccessMarkers(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	clk.now = 0
	r.TaskState("t", "cpu", StateRunning)
	clk.now = 50 * sim.Us
	r.Access("t", "ev", AccessSignal)
	clk.now = 100 * sim.Us
	r.TaskState("t", "cpu", StateTerminated)
	out := r.RenderTimeline(TimelineOptions{End: 100 * sim.Us, Width: 10, ShowAccesses: true})
	if !strings.Contains(out, "s") {
		t.Fatalf("signal marker missing:\n%s", out)
	}
}

func TestRecorderAccessors(t *testing.T) {
	clk := &fakeClock{now: 7 * sim.Us}
	r := NewRecorder(clk.Now)
	if r.Now() != 7*sim.Us {
		t.Fatalf("Now = %v", r.Now())
	}
	r.TaskState("b", "cpu", StateReady)
	r.TaskState("a", "cpu", StateReady)
	r.Access("a", "o", AccessRead)
	r.Depth("o", 1, 1)
	r.Overhead("cpu", "a", OverheadScheduling, 0, sim.Us)
	if count(r.StateChanges()) != 2 || count(r.Accesses()) != 1 || count(r.Depths()) != 1 || count(r.Overheads()) != 1 {
		t.Fatal("accessor lengths wrong")
	}
	sorted := r.SortedTasks()
	if len(sorted) != 2 || sorted[0] != "a" || sorted[1] != "b" {
		t.Fatalf("SortedTasks = %v", sorted)
	}
	if st := r.ComputeStats(0); len(st.Tasks) != 2 {
		t.Fatal("stats from natural end broken")
	}
	if _, ok := r.ComputeStats(0).TaskByName("zzz"); ok {
		t.Fatal("TaskByName found a ghost")
	}
	if _, ok := r.ComputeStats(0).ObjectByName("zzz"); ok {
		t.Fatal("ObjectByName found a ghost")
	}
	if _, ok := r.ComputeStats(0).ProcessorByName("zzz"); ok {
		t.Fatal("ProcessorByName found a ghost")
	}
}

func TestRenderTimelineEmptyWindow(t *testing.T) {
	r := NewRecorder(func() sim.Time { return 0 })
	if out := r.RenderTimeline(TimelineOptions{}); out != "" {
		t.Fatalf("empty trace rendered %q", out)
	}
}
