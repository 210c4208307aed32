package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// runSMP simulates examples/scenarios/smp.json to its horizon and returns the
// built system. The scenario is deterministic, so every run produces the same
// trace.
func runSMP(t *testing.T) *Built {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "smp.json"))
	if err != nil {
		t.Fatalf("read smp scenario: %v", err)
	}
	desc, err := Parse(data)
	if err != nil {
		t.Fatalf("parse smp scenario: %v", err)
	}
	built, err := desc.Build()
	if err != nil {
		t.Fatalf("build smp scenario: %v", err)
	}
	if _, err := built.RunChecked(); err != nil {
		t.Fatalf("run smp scenario: %v", err)
	}
	return built
}

// TestPerfettoGolden pins the Perfetto/Chrome trace_event export of the SMP
// example scenario byte-for-byte. Regenerate with:
//
//	go test ./internal/scenario/ -run TestPerfettoGolden -update
func TestPerfettoGolden(t *testing.T) {
	built := runSMP(t)
	var buf bytes.Buffer
	if err := built.Sys.WritePerfetto(&buf); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}

	golden := filepath.Join("testdata", "smp_perfetto.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Perfetto export differs from %s (%d vs %d bytes); run with -update after verifying the change",
			golden, buf.Len(), len(want))
	}
}

// TestPerfettoStructure validates the export against the trace_event format
// contract independent of the golden bytes: parseable JSON, microsecond
// timestamps, named processes and threads, task and overhead slices, and
// deadline-miss instants (the smp scenario overloads two cores, so misses
// must be present).
func TestPerfettoStructure(t *testing.T) {
	built := runSMP(t)
	var buf bytes.Buffer
	if err := built.Sys.WritePerfetto(&buf); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}

	var file struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want \"ns\"", file.DisplayTimeUnit)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	processes := map[int]string{}
	threads := map[[2]int]string{}
	var slices, overheads, misses, migrations int
	for i, e := range file.TraceEvents {
		switch e.Ph {
		case "M":
			switch e.Name {
			case "process_name":
				processes[e.Pid] = e.Args["name"].(string)
			case "thread_name":
				threads[[2]int{e.Pid, e.Tid}] = e.Args["name"].(string)
			default:
				t.Errorf("event %d: unknown metadata %q", i, e.Name)
			}
		case "X":
			slices++
			if e.Dur == nil || *e.Dur < 0 {
				t.Errorf("event %d (%s): complete slice without non-negative dur", i, e.Name)
			}
			if e.Cat == "overhead" {
				overheads++
			}
			if _, ok := threads[[2]int{e.Pid, e.Tid}]; !ok {
				t.Errorf("event %d (%s): slice on unnamed thread %d/%d", i, e.Name, e.Pid, e.Tid)
			}
		case "i":
			if strings.HasPrefix(e.Name, "deadline-miss") {
				misses++
			}
			if strings.HasPrefix(e.Name, "migrate") {
				migrations++
			}
		default:
			t.Errorf("event %d: unexpected phase %q", i, e.Ph)
		}
		if e.Ph != "M" && e.Ts < 0 {
			t.Errorf("event %d (%s): negative timestamp %v", i, e.Name, e.Ts)
		}
	}
	if got := processes[1]; got != "cpu0" {
		t.Errorf("process 1 named %q, want cpu0", got)
	}
	if name := threads[[2]int{1, 1}]; name != "core0" {
		t.Errorf("thread 1/1 named %q, want core0", name)
	}
	if name := threads[[2]int{1, 2}]; name != "core1" {
		t.Errorf("thread 1/2 named %q, want core1 (2-core scenario)", name)
	}
	if slices == 0 || overheads == 0 {
		t.Errorf("got %d slices (%d overhead), want both > 0", slices, overheads)
	}
	n := 0
	for range built.Sys.Rec.Migrations() {
		n++
	}
	if migrations != n {
		t.Errorf("%d migration instants, trace records %d migrations", migrations, n)
	}
	if migrations == 0 {
		t.Error("no migration instants; the global-domain smp scenario must migrate")
	}
	wantMisses := 0
	for _, v := range built.Sys.Constraints.Violations() {
		if strings.HasSuffix(v.Name, ".deadline") {
			wantMisses++
		}
	}
	if misses != wantMisses {
		t.Errorf("%d deadline-miss instants, constraint monitor reports %d", misses, wantMisses)
	}

	// Chronological ordering after the metadata block.
	last := -1.0
	for i, e := range file.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Ts < last {
			t.Fatalf("event %d out of order: ts %v after %v", i, e.Ts, last)
		}
		last = e.Ts
	}
}

// TestPerfettoMetricsParity is the scenario-level acceptance check: on the
// SMP example, the metrics registry agrees exactly with the trace-derived
// statistics on context switches, preemptions, deadline misses and
// migrations.
func TestPerfettoMetricsParity(t *testing.T) {
	built := runSMP(t)
	sys := built.Sys
	snap := sys.MetricsSnapshot()

	value := func(name string) int64 {
		var total int64
		for _, m := range snap.Metrics {
			if m.Name == name && len(m.Labels) > 0 && m.Labels[0].Name == "cpu" {
				total += m.Value
			}
		}
		return total
	}

	st := sys.Stats(0)
	var switches, preempt int
	for _, ps := range st.Processors {
		switches += ps.ContextSwitches
	}
	for _, ts := range st.Tasks {
		preempt += ts.Preemptions
	}
	if got := value("rtos_context_switches_total"); got != int64(switches) {
		t.Errorf("context switches: metrics %d, trace %d", got, switches)
	}
	if got := value("rtos_preemptions_total"); got != int64(preempt) {
		t.Errorf("preemptions: metrics %d, trace %d", got, preempt)
	}
	n := 0
	for range sys.Rec.Migrations() {
		n++
	}
	if got := value("rtos_migrations_total"); got != int64(n) {
		t.Errorf("migrations: metrics %d, trace %d", got, n)
	}
	misses := 0
	for _, v := range sys.Constraints.Violations() {
		if strings.HasSuffix(v.Name, ".deadline") {
			misses++
		}
	}
	if got := value("rtos_deadline_misses_total"); got != int64(misses) {
		t.Errorf("misses: metrics %d, constraints %d", got, misses)
	}
	if switches == 0 {
		t.Error("smp scenario produced no context switches; parity is vacuous")
	}
}
