package scenario

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// faultScenarioJSON is the issue's acceptance scenario: a periodic control
// task with a WCET-overrun fault and the restart-on-miss recovery policy.
// The overrun window [0, 300us) makes the first jobs blow their deadline;
// after the fault clears the task settles back into meeting it.
const faultScenarioJSON = `{
	"name": "wcet-overrun-restart",
	"horizon": "1ms",
	"processors": [{"name": "cpu", "engine": "procedural"}],
	"tasks": [{
		"name": "ctrl", "processor": "cpu",
		"period": "100us", "deadline": "100us", "onMiss": "restart",
		"body": [{"op": "execute", "for": "60us"}]
	}],
	"faults": [{"kind": "wcet_overrun", "task": "ctrl", "factor": 4, "until": "300us"}]
}`

func countFaultKinds(evs []trace.FaultRecord) (injected, recovered, wdFired int) {
	for _, e := range evs {
		switch e.Kind {
		case trace.FaultInjected:
			injected++
		case trace.RecoveryTaken:
			recovered++
		case trace.WatchdogFired:
			wdFired++
		}
	}
	return
}

func TestScenarioWCETOverrunWithRestartPolicy(t *testing.T) {
	for _, engine := range []string{"procedural", "threaded"} {
		src := strings.Replace(faultScenarioJSON, `"procedural"`, `"`+engine+`"`, 1)
		s, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		b, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if _, err := b.RunChecked(); err != nil {
			t.Fatalf("%s: RunChecked: %v", engine, err)
		}
		if got := b.Sys.FinishReason(); got != sim.FinishLimit {
			t.Fatalf("%s: finish reason %v, want limit", engine, got)
		}
		evs := slices.Collect(b.Sys.Rec.FaultEvents())
		injected, recovered, _ := countFaultKinds(evs)
		if injected == 0 || recovered == 0 {
			t.Fatalf("%s: want both fault and recovery events, got %d/%d", engine, injected, recovered)
		}
		var sawOverrun, sawRestart bool
		for _, e := range evs {
			sawOverrun = sawOverrun || (e.Kind == trace.FaultInjected && e.Label == "wcet-overrun")
			sawRestart = sawRestart || (e.Kind == trace.RecoveryTaken && e.Label == "miss-restart")
		}
		if !sawOverrun || !sawRestart {
			t.Fatalf("%s: want wcet-overrun + miss-restart events, got %v", engine, evs)
		}
		tsk := b.Tasks["ctrl"]
		if tsk == nil {
			t.Fatalf("%s: task handle not exported", engine)
		}
		if tsk.AbortedCycles() == 0 {
			t.Fatalf("%s: restart policy never aborted a late job", engine)
		}
		// After the fault window closes at 300us the 60us job fits its
		// 100us period again: most of the horizon completes cleanly.
		if tsk.CompletedCycles() < 5 {
			t.Fatalf("%s: only %d cycles completed after recovery", engine, tsk.CompletedCycles())
		}
		if vs := b.Sys.Constraints.Violations(); len(vs) == 0 {
			t.Fatalf("%s: deadline misses not reported as violations", engine)
		}
	}
}

func TestScenarioWatchdogKickAndHang(t *testing.T) {
	const src = `{
		"horizon": "1ms",
		"processors": [{"name": "cpu"}],
		"watchdogs": [{"name": "wd", "processor": "cpu", "timeout": "150us", "task": "ctrl"}],
		"tasks": [{
			"name": "ctrl", "processor": "cpu", "period": "100us",
			"body": [{"op": "kick", "watchdog": "wd"}, {"op": "execute", "for": "40us"}]
		}],
		"faults": [{"kind": "hang", "task": "ctrl", "at": "210us"}]
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunChecked(); err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	wd := b.Watchdogs["wd"]
	if wd == nil {
		t.Fatal("watchdog handle not exported")
	}
	if wd.Fired() == 0 {
		t.Fatal("watchdog never fired despite the forever hang")
	}
	if wd.Kicks() < 2 {
		t.Fatalf("kick op not reaching the watchdog: %d kicks", wd.Kicks())
	}
	_, _, wdFired := countFaultKinds(slices.Collect(b.Sys.Rec.FaultEvents()))
	if wdFired == 0 {
		t.Fatal("watchdog firing not recorded in the trace")
	}
	// The watchdog restart recovers the hung task: cycles keep completing
	// after the 210us hang.
	if got := b.Tasks["ctrl"].CompletedCycles(); got < 5 {
		t.Fatalf("task did not recover from the hang: %d cycles", got)
	}
}

func TestScenarioDeadlockReportedByRunChecked(t *testing.T) {
	// Two tasks wait on events nobody ever signals: RunChecked must return a
	// structured error naming the blocked tasks instead of silently stopping.
	const src = `{
		"horizon": "1ms",
		"processors": [{"name": "cpu"}],
		"events": [{"name": "never"}],
		"tasks": [
			{"name": "a", "processor": "cpu", "body": [{"op": "execute", "for": "5us"}, {"op": "wait", "event": "never"}]},
			{"name": "b", "processor": "cpu", "body": [{"op": "execute", "for": "5us"}, {"op": "wait", "event": "never"}]}
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
	_, err = b.RunChecked()
	if err == nil {
		t.Fatal("deadlocked scenario returned no error")
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "a ", "b "} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
	if b.Sys.FinishReason() != sim.FinishDeadlock {
		t.Fatalf("finish reason %v, want deadlock", b.Sys.FinishReason())
	}
}

// A model mixing a goroutine task and a continuation task, both stuck on an
// event nobody signals, is one deadlock that names both tasks.
func TestScenarioDeadlockMixedEngines(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "stuck.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	s.Tasks[0].Engine = "goroutine"
	s.Tasks[1].Engine = "continuation"
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.RunChecked()
	if err == nil {
		t.Fatal("deadlocked scenario returned no error")
	}
	msg := err.Error()
	for _, want := range []string{
		"2 process(es) blocked forever",
		"blocked: a waiting on a.TaskRun",
		"blocked: b waiting on b.TaskRun",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestScenarioFaultValidation(t *testing.T) {
	base := `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","period":"100us","body":[{"op":"execute","for":"1us"}]}],`
	cases := []struct{ name, tail, want string }{
		{"unknown kind", `"faults":[{"kind":"meteor","task":"t"}]}`, "unknown fault kind"},
		{"unknown task", `"faults":[{"kind":"crash","task":"ghost","at":"1us"}]}`, "unknown task"},
		{"bad factor", `"faults":[{"kind":"wcet_overrun","task":"t","factor":0.5}]}`, "factor"},
		{"no effect", `"faults":[{"kind":"wcet_overrun","task":"t"}]}`, "no effect"},
		{"bad probability", `"faults":[{"kind":"irq_drop","irq":"i","probability":2}]}`, "probability"},
		{"unknown irq", `"faults":[{"kind":"irq_drop","irq":"i"}]}`, "unknown irq"},
		{"empty window", `"faults":[{"kind":"wcet_overrun","task":"t","factor":2,"after":"10us","until":"10us"}]}`, "window"},
		{"bad watchdog timeout", `"watchdogs":[{"name":"w","processor":"p","timeout":"0us"}]}`, "timeout"},
		{"watchdog unknown task", `"watchdogs":[{"name":"w","processor":"p","timeout":"1us","task":"ghost"}]}`, "unknown task"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(base + tc.tail)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	bad := `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"kick","watchdog":"w"}]}]}`
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "unknown watchdog") {
		t.Errorf("kick unknown watchdog: got %v", err)
	}
	noPeriod := `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","onMiss":"abort","body":[{"op":"execute","for":"1us"}]}]}`
	if _, err := Parse([]byte(noPeriod)); err == nil || !strings.Contains(err.Error(), "requires a period") {
		t.Errorf("onMiss without period: got %v", err)
	}
}
