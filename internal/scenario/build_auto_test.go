package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// runForDiff parses, sets engine on the named tasks (every task whose engine
// is unset when names is nil), builds, runs, and returns the built system
// plus its full CSV trace and statistics report — the observables the
// differential tests compare across engines. An empty engine leaves the
// description as written, so automatic engine selection applies.
func runForDiff(t *testing.T, data []byte, engine string, names []string) (*Built, string, string) {
	t.Helper()
	desc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range desc.Tasks {
		task := &desc.Tasks[i]
		if engine != "" && (names == nil && task.Engine == "" || slices.Contains(names, task.Name)) {
			task.Engine = engine
		}
	}
	built, err := desc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.RunChecked(); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := built.Sys.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return built, csv.String(), built.Sys.Stats(0).String()
}

// The auto-selected continuation engine must be an implementation detail: for
// a scenario whose tasks are auto-selected, the trace and statistics are
// byte-identical to the same scenario forced onto the goroutine engine, and
// the trace is the one an explicit "engine": "continuation" produces.
func TestAutoEngineDifferentialGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "periodic_rm.json"))
	if err != nil {
		t.Fatal(err)
	}
	autoBuilt, autoCSV, autoStats := runForDiff(t, data, "", nil)
	goBuilt, goCSV, goStats := runForDiff(t, data, "goroutine", nil)

	want := []string{"audio", "control", "logger", "video"}
	if !reflect.DeepEqual(autoBuilt.AutoLowered, want) {
		t.Errorf("AutoLowered = %v, want %v", autoBuilt.AutoLowered, want)
	}
	if len(goBuilt.AutoLowered) != 0 {
		t.Errorf("goroutine-pinned build still auto-selected %v", goBuilt.AutoLowered)
	}
	_, contCSV, _ := runForDiff(t, data, "continuation", autoBuilt.AutoLowered)
	if autoCSV != contCSV {
		t.Errorf("CSV traces differ between auto-selected and explicit continuation tasks\nauto:\n%s\ncontinuation:\n%s", autoCSV, contCSV)
	}
	if autoCSV != goCSV {
		t.Errorf("CSV traces differ between auto-continuation and goroutine engines\nauto:\n%s\ngoroutine:\n%s", autoCSV, goCSV)
	}
	if autoStats != goStats {
		t.Errorf("statistics differ between auto-continuation and goroutine engines\nauto:\n%s\ngoroutine:\n%s", autoStats, goStats)
	}
}

func TestAutoEngineSkipsUnlowerableBodies(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"comm op", `{
			"horizon": "1ms",
			"processors": [{"name": "cpu0"}],
			"events": [{"name": "go"}],
			"tasks": [
				{"name": "a", "processor": "cpu0", "priority": 2, "period": "100us",
				 "body": [{"op": "execute", "for": "10us"}, {"op": "signal", "event": "go"}]}
			]
		}`},
		{"loop body", `{
			"horizon": "1ms",
			"processors": [{"name": "cpu0"}],
			"tasks": [
				{"name": "a", "processor": "cpu0", "priority": 2, "loop": true,
				 "body": [{"op": "execute", "for": "10us"}, {"op": "delay", "for": "90us"}]}
			]
		}`},
		{"explicit goroutine", `{
			"horizon": "1ms",
			"processors": [{"name": "cpu0"}],
			"tasks": [
				{"name": "a", "processor": "cpu0", "priority": 2, "period": "100us",
				 "engine": "goroutine", "body": [{"op": "execute", "for": "10us"}]}
			]
		}`},
		{"trace body", `{
			"horizon": "1ms",
			"processors": [{"name": "cpu0"}],
			"traces": {"load": ["10us", "20us"]},
			"tasks": [
				{"name": "a", "processor": "cpu0", "priority": 2, "period": "100us",
				 "body": [{"op": "execute_trace", "trace": "load"}]}
			]
		}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			built, _, _ := runForDiff(t, []byte(tc.json), "", nil)
			if len(built.AutoLowered) != 0 {
				t.Errorf("auto-lowered %v, want none", built.AutoLowered)
			}
		})
	}
}

func TestAutoEngineLowersMixedScenario(t *testing.T) {
	// One whitelisted periodic task, one one-shot with repeat, one blocked on
	// an event (not whitelisted): exactly the first two are auto-selected,
	// and the trace matches both the goroutine run and the run with the two
	// tasks set to "continuation" explicitly.
	src := `{
		"horizon": "1ms",
		"processors": [{"name": "cpu0"}],
		"events": [{"name": "go"}],
		"tasks": [
			{"name": "beat", "processor": "cpu0", "priority": 4, "period": "200us",
			 "body": [
				{"op": "nopreempt_begin"},
				{"op": "execute", "for": "20us"},
				{"op": "nopreempt_end"},
				{"op": "yield"},
				{"op": "repeat", "count": 2, "body": [{"op": "execute", "for": "5us"}]}
			 ]},
			{"name": "once", "processor": "cpu0", "priority": 3, "repeat": 3,
			 "body": [{"op": "execute", "for": "10us"}, {"op": "delay", "for": "30us"}]},
			{"name": "waiter", "processor": "cpu0", "priority": 2,
			 "body": [{"op": "wait", "event": "go"}]}
		]
	}`
	autoBuilt, autoCSV, _ := runForDiff(t, []byte(src), "", nil)
	_, goCSV, _ := runForDiff(t, []byte(src), "goroutine", nil)
	want := []string{"beat", "once"}
	if !reflect.DeepEqual(autoBuilt.AutoLowered, want) {
		t.Errorf("AutoLowered = %v, want %v", autoBuilt.AutoLowered, want)
	}
	if _, contCSV, _ := runForDiff(t, []byte(src), "continuation", want); autoCSV != contCSV {
		t.Errorf("CSV traces differ between auto-selected and explicit continuation tasks\nauto:\n%s\ncontinuation:\n%s", autoCSV, contCSV)
	}
	if autoCSV != goCSV {
		t.Errorf("CSV traces differ between auto-continuation and goroutine engines\nauto:\n%s\ngoroutine:\n%s", autoCSV, goCSV)
	}
}

func TestAutoLowerablePredicate(t *testing.T) {
	ok := []Op{
		{Op: "execute"}, {Op: "delay"}, {Op: "yield"},
		{Op: "nopreempt_begin"}, {Op: "nopreempt_end"}, {Op: "setprio"},
		{Op: "repeat", Body: []Op{{Op: "execute"}}},
	}
	if !autoLowerable(ok) {
		t.Error("whitelisted op list rejected")
	}
	for _, bad := range []string{"wait", "signal", "put", "tryput", "get", "raise",
		"send", "recv", "submit", "lock", "unlock", "read", "write",
		"lat_start", "lat_stop", "kick", "execute_trace"} {
		if autoLowerable([]Op{{Op: "execute"}, {Op: bad}}) {
			t.Errorf("op %q accepted as auto-lowerable", bad)
		}
		if autoLowerable([]Op{{Op: "repeat", Body: []Op{{Op: bad}}}}) {
			t.Errorf("op %q inside repeat accepted as auto-lowerable", bad)
		}
	}
}
