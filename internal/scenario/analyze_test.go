package scenario

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestExecuteTrace(t *testing.T) {
	src := `{
	  "horizon": "10ms",
	  "processors": [{"name": "p"}],
	  "traces": {"decode": ["100us", "300us", "200us"]},
	  "tasks": [
	    {"name": "t", "processor": "p", "repeat": 4, "body": [
	      {"op": "execute_trace", "trace": "decode"},
	      {"op": "delay", "for": "1ms"}
	    ]}
	  ]
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	// Durations 100+300+200+100 (wrapped) interleaved with 1ms delays:
	// completion at 100+1000+300+1000+200+1000+100+1000 = 4.7ms.
	if got := b.Sys.Now(); got != 4700*sim.Us {
		t.Fatalf("end = %v, want 4.7ms", got)
	}

	for name, bad := range map[string]string{
		"unknown trace": `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute_trace","trace":"ghost"}]}]}`,
		"empty trace":   `{"processors":[{"name":"p"}],"traces":{"x":[]},"tasks":[{"name":"t","processor":"p","body":[{"op":"execute_trace","trace":"x"}]}]}`,
		"zero entry":    `{"processors":[{"name":"p"}],"traces":{"x":["0us"]},"tasks":[{"name":"t","processor":"p","body":[{"op":"execute_trace","trace":"x"}]}]}`,
		"hw trace":      `{"processors":[{"name":"p"}],"traces":{"x":["1us"]},"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}],"hardware":[{"name":"h","body":[{"op":"execute_trace","trace":"x"}]}]}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWCETExtraction(t *testing.T) {
	ops := []Op{
		{Op: "execute", For: Duration(10 * sim.Us)},
		{Op: "wait", Event: "e"}, // blocking: no CPU
		{Op: "repeat", Count: 3, Body: []Op{
			{Op: "execute", For: Duration(5 * sim.Us)},
			{Op: "delay", For: Duration(100 * sim.Us)}, // no CPU
		}},
		{Op: "execute", For: Duration(2 * sim.Us)},
	}
	if got := WCET(ops, nil); got != 27*sim.Us {
		t.Fatalf("WCET = %v, want 27us", got)
	}
	// An execute_trace costs its trace's largest entry.
	traces := map[string][]Duration{"frames": {Duration(3 * sim.Us), Duration(9 * sim.Us), Duration(5 * sim.Us)}}
	ops = append(ops, Op{Op: "repeat", Count: 2, Body: []Op{{Op: "execute_trace", Trace: "frames"}}})
	if got := WCET(ops, traces); got != 45*sim.Us {
		t.Fatalf("WCET with trace = %v, want 45us", got)
	}
}

// TestAnalysisReportChargesTraces checks that a trace-driven periodic task is
// analysed at its trace's largest entry and does not hide the other periodic
// tasks of its processor.
func TestAnalysisReportChargesTraces(t *testing.T) {
	s, err := Parse([]byte(`{"processors": [{"name": "p"}],
	  "traces": {"frames": ["300us", "900us", "500us"]},
	  "tasks": [
	    {"name": "a", "processor": "p", "priority": 2, "period": "1ms", "body": [{"op": "execute_trace", "trace": "frames"}]},
	    {"name": "b", "processor": "p", "priority": 1, "period": "2ms", "body": [{"op": "execute", "for": "500us"}]}
	  ]}`))
	if err != nil {
		t.Fatal(err)
	}
	out := s.AnalysisReport()
	for _, want := range []string{"--- processor p ---", "2 tasks", "a                C=900us", "b                C=500us"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

const analyzableJSON = `{
  "horizon": "100ms",
  "processors": [{"name": "cpu",
    "overheads": {"scheduling": "5us", "contextSave": "5us", "contextLoad": "5us"}}],
  "tasks": [
    {"name": "fast", "processor": "cpu", "priority": 2, "period": "4ms", "body": [
      {"op": "execute", "for": "1ms"}
    ]},
    {"name": "slow", "processor": "cpu", "priority": 1, "period": "10ms", "body": [
      {"op": "repeat", "count": 2, "body": [{"op": "execute", "for": "1500us"}]}
    ]},
    {"name": "aperiodic", "processor": "cpu", "loop": true, "body": [
      {"op": "execute", "for": "1us"},
      {"op": "delay", "for": "1ms"}
    ]}
  ]
}`

func TestAnalyzeProcessor(t *testing.T) {
	s, err := Parse([]byte(analyzableJSON))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.AnalyzeProcessor("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %d, want 2 (aperiodic excluded)", len(specs))
	}
	byName := map[string]sim.Time{}
	prio := map[string]int{}
	for _, spec := range specs {
		byName[spec.Name] = spec.WCET
		prio[spec.Name] = spec.Priority
	}
	if byName["fast"] != sim.Ms || byName["slow"] != 3*sim.Ms {
		t.Fatalf("WCETs = %v", byName)
	}
	// Declared priorities are carried verbatim.
	if prio["fast"] != 2 || prio["slow"] != 1 {
		t.Fatalf("declared priorities wrong: %v", prio)
	}
	if _, err := s.AnalyzeProcessor("ghost"); err == nil {
		t.Fatal("unknown processor analysed")
	}
}

func TestAnalysisReport(t *testing.T) {
	s, err := Parse([]byte(analyzableJSON))
	if err != nil {
		t.Fatal(err)
	}
	out := s.AnalysisReport()
	for _, want := range []string{"processor cpu", "utilization 0.550", "schedulable=true", "fast", "slow"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// A scenario with no periodic tasks reports that.
	s2, _ := Parse([]byte(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`))
	if !strings.Contains(s2.AnalysisReport(), "no periodic tasks") {
		t.Error("empty report wrong")
	}
}

// TestAnalysisMatchesScenarioSimulation closes the loop: the analysis
// verdict extracted from the JSON matches the simulated outcome of the very
// same JSON.
func TestAnalysisMatchesScenarioSimulation(t *testing.T) {
	s, err := Parse([]byte(analyzableJSON))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	if !b.Sys.Constraints.OK() {
		t.Fatalf("schedulable scenario missed deadlines: %v", b.Sys.Constraints.Violations())
	}
}
