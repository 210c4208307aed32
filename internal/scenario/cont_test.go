package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// commRichJSON exercises every continuation-expressible op kind: queue
// put/get, tryput, shared lock/unlock/read/write, events, nopreempt regions,
// setprio, yield, repeat loops, execute_trace, an IRQ raised from a task, a
// watchdog kick and a hang fault recovered by the watchdog.
const commRichJSON = `{
	"name": "comm-rich",
	"horizon": "2ms",
	"processors": [{"name": "cpu", "overheads": {"scheduling": "1us", "contextSave": "1us", "contextLoad": "1us"}}],
	"events": [{"name": "go", "policy": "counter"}],
	"queues": [{"name": "q", "capacity": 2}],
	"shared": [{"name": "sv", "initial": 0, "inherit": true}],
	"traces": {"frames": ["8us", "12us", "5us"]},
	"irqs": [{"name": "rx", "processor": "cpu", "priority": 1, "latency": "2us", "body": [
		{"op": "execute", "for": "3us"}
	]}],
	"watchdogs": [{"name": "wd", "processor": "cpu", "timeout": "200us", "task": "worker"}],
	"tasks": [
		{"name": "worker", "processor": "cpu", "priority": 5, "period": "150us", "onMiss": "abort", "body": [
			{"op": "kick", "watchdog": "wd"},
			{"op": "execute_trace", "trace": "frames"},
			{"op": "lock", "shared": "sv"},
			{"op": "execute", "for": "4us"},
			{"op": "write", "shared": "sv", "value": 7},
			{"op": "unlock", "shared": "sv"},
			{"op": "tryput", "queue": "q", "value": 1},
			{"op": "signal", "event": "go"}
		]},
		{"name": "reader", "processor": "cpu", "priority": 4, "loop": true, "body": [
			{"op": "wait", "event": "go"},
			{"op": "read", "shared": "sv"},
			{"op": "repeat", "count": 2, "body": [
				{"op": "execute", "for": "6us"},
				{"op": "yield"}
			]}
		]},
		{"name": "drain", "processor": "cpu", "priority": 3, "loop": true, "body": [
			{"op": "get", "queue": "q"},
			{"op": "nopreempt_begin"},
			{"op": "execute", "for": "5us"},
			{"op": "nopreempt_end"},
			{"op": "setprio", "value": 3},
			{"op": "raise", "irq": "rx"},
			{"op": "delay", "for": "25us"}
		]}
	],
	"faults": [{"kind": "hang", "task": "worker", "at": "400us"}]
}`

// smpJitterJSON exercises continuation tasks on a two-core global-domain
// processor with release jitter and the threaded engine variant via replace.
const smpJitterJSON = `{
	"name": "smp-jitter",
	"horizon": "2ms",
	"processors": [{"name": "cpu", "engine": "procedural", "cores": 2, "domain": "global",
		"overheads": {"scheduling": "1us", "contextSave": "1us", "contextLoad": "1us"}}],
	"tasks": [
		{"name": "a", "processor": "cpu", "priority": 6, "period": "90us", "jitter": "9us", "body": [
			{"op": "execute", "for": "30us"}
		]},
		{"name": "b", "processor": "cpu", "priority": 5, "period": "120us", "body": [
			{"op": "execute", "for": "45us"},
			{"op": "delay", "for": "10us"},
			{"op": "execute", "for": "15us"}
		]},
		{"name": "c", "processor": "cpu", "priority": 4, "period": "200us", "onMiss": "skip_next", "body": [
			{"op": "execute", "for": "80us"}
		]}
	]
}`

// busPipelineJSON is a two-processor bus pipeline fed by a hardware source:
// the source and the first stage contend for one bus, each stage hands its
// message on over a small channel, and a higher-priority periodic task
// preempts the first stage mid-pipeline. Every send/recv of the software
// tasks compiles; the hardware source keeps its goroutine.
const busPipelineJSON = `{
	"name": "bus-pipeline",
	"horizon": "1ms",
	"processors": [
		{"name": "cpu0", "overheads": {"scheduling": "1us", "contextSave": "1us", "contextLoad": "1us"}},
		{"name": "cpu1", "overheads": {"scheduling": "2us", "contextSave": "1us", "contextLoad": "1us"}}
	],
	"buses": [{"name": "noc", "perByte": "10ns", "arbitration": "1us"}],
	"channels": [
		{"name": "in", "bus": "noc", "capacity": 2, "messageBytes": 400},
		{"name": "mid", "bus": "noc", "capacity": 1, "messageBytes": 900}
	],
	"constraints": [{"name": "e2e", "limit": "200us"}],
	"tasks": [
		{"name": "stage1", "processor": "cpu0", "priority": 3, "loop": true, "body": [
			{"op": "recv", "channel": "in"},
			{"op": "execute", "for": "18us"},
			{"op": "send", "channel": "mid", "value": 2}
		]},
		{"name": "tick", "processor": "cpu0", "priority": 6, "period": "70us", "body": [
			{"op": "execute", "for": "9us"}
		]},
		{"name": "stage2", "processor": "cpu1", "priority": 2, "loop": true, "body": [
			{"op": "recv", "channel": "mid"},
			{"op": "repeat", "count": 2, "body": [{"op": "execute", "for": "14us"}]},
			{"op": "lat_stop", "constraint": "e2e"}
		]}
	],
	"hardware": [
		{"name": "source", "loop": true, "body": [
			{"op": "delay", "for": "25us"},
			{"op": "lat_start", "constraint": "e2e"},
			{"op": "send", "channel": "in", "value": 1}
		]}
	]
}`

// contGoldenScenarios are the differential goldens of the scenario op
// compiler, held to byte-identical trace exports. The multicore golden and
// soc_bus (whose sporadic server and hardware sensor stay goroutines) also pin
// the same-instant order between strands and processes; interrupt.json (ISR
// bodies and the hardware raiser nic), figure6.json and figure7.json (the
// hardware Clock) pin hardware and ISR bodies against the reference
// interpreter.
var contGoldenScenarios = []struct {
	name string
	src  string
}{
	{"figure6", figure6JSON},
	{"wcet-restart", faultScenarioJSON},
	{"comm-rich", commRichJSON},
	{"smp-jitter", smpJitterJSON},
	{"bus-pipeline", busPipelineJSON},
	{"soc_bus", readCorpus("soc_bus.json")},
	{"interrupt.json", readCorpus("interrupt.json")},
	{"figure6.json", readCorpus("figure6.json")},
	{"figure7.json", readCorpus("figure7.json")},
}

// readCorpus returns a shipped example scenario's source.
func readCorpus(name string) string {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		panic(err)
	}
	return string(data)
}

// withEngine returns the scenario with every software task's body form set
// to the given engine value, via the parsed description (not string edits).
func withEngine(t *testing.T, src, engine string) *System {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Tasks {
		s.Tasks[i].Engine = engine
	}
	return s
}

// runScenario elaborates and runs a description, returning the SHA-256 of
// the raw trace export and the filtered rtos_* metrics serialization.
func runScenario(t *testing.T, s *System) (traceHash, metricsKey string) {
	t.Helper()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	h := sha256.New()
	if err := b.Sys.Rec.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	var keep []json.RawMessage
	for _, m := range b.Sys.Metrics.Snapshot().Metrics {
		if !strings.HasPrefix(m.Name, "rtos_") || m.Name == "rtos_continuation_resumes_total" {
			continue
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, enc)
	}
	mk, err := json.Marshal(keep)
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), string(mk)
}

// TestContinuationGoldens is the scenario-level three-way differential of
// the op compiler: each canonical scenario runs with its compiled bodies on
// goroutine tasks (Program.Run), with its compiled bodies on continuation
// tasks, and with every goroutine-form body — software tasks, hardware tasks
// and ISRs — on the reference interpreter, on both RTOS engines. All three
// must produce byte-identical trace exports and identical rtos_* metrics.
func TestContinuationGoldens(t *testing.T) {
	for _, g := range contGoldenScenarios {
		for _, eng := range []string{"procedural", "threaded"} {
			t.Run(g.name+"/"+eng, func(t *testing.T) {
				src := g.src
				if eng == "threaded" {
					src = forceProcessorEngine(t, src, "threaded")
				}
				hashG, metG := runScenario(t, withEngine(t, src, "goroutine"))
				hashC, metC := runScenario(t, withEngine(t, src, "continuation"))
				var hashR, metR string
				if withReferenceBodies(func() { hashR, metR = runScenario(t, withEngine(t, src, "goroutine")) }) == 0 {
					t.Fatal("reference run built no body on the interpreter")
				}
				for _, other := range []struct{ form, hash, met string }{
					{"continuation", hashC, metC},
					{"reference", hashR, metR},
				} {
					if hashG != other.hash {
						t.Errorf("trace exports differ between goroutine and %s bodies: %s vs %s", other.form, hashG, other.hash)
						diffScenarioTraces(t, src, other.form)
					}
					if metG != other.met {
						t.Errorf("rtos_* metrics differ between body forms:\n goroutine: %s\n %s: %s", metG, other.form, other.met)
					}
				}
			})
		}
	}
}

// forceProcessorEngine re-parses the description with every processor set to
// the given RTOS engine.
func forceProcessorEngine(t *testing.T, src, engine string) string {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(src), &raw); err != nil {
		t.Fatal(err)
	}
	var procs []map[string]json.RawMessage
	if err := json.Unmarshal(raw["processors"], &procs); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		enc, _ := json.Marshal(engine)
		p["engine"] = enc
	}
	enc, err := json.Marshal(procs)
	if err != nil {
		t.Fatal(err)
	}
	raw["processors"] = enc
	out, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// diffScenarioTraces re-runs a diverged golden with recorders kept and
// reports the first records where the goroutine form and the other form
// ("continuation" or "reference") differ, for debuggability.
func diffScenarioTraces(t *testing.T, src, form string) {
	t.Helper()
	build := func(engine string) *Built {
		b, err := withEngine(t, src, engine).Build()
		if err != nil {
			t.Fatal(err)
		}
		b.Run()
		return b
	}
	bG := build("goroutine")
	var bO *Built
	if form == "reference" {
		withReferenceBodies(func() { bO = build("goroutine") })
	} else {
		bO = build(form)
	}
	horizon := bG.Desc.Horizon.Time()
	t.Logf("trace diff:\n%s", trace.Diff(bG.Sys.Rec, bO.Sys.Rec, horizon, 8))
}

// TestContinuationResumesCounted checks that a continuation-bodied scenario
// advances the rtos_continuation_resumes_total counter.
func TestContinuationResumesCounted(t *testing.T) {
	s := withEngine(t, figure6JSON, "continuation")
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	m, ok := b.Sys.Metrics.Snapshot().Get("rtos_continuation_resumes_total")
	if !ok {
		t.Fatal("rtos_continuation_resumes_total not registered")
	}
	if m.Value == 0 {
		t.Error("continuation scenario ran but the resume counter is zero")
	}
	for name, tk := range b.Tasks {
		if !tk.IsContinuation() {
			t.Errorf("task %q not built as a continuation", name)
		}
	}
}

// TestContinuationEngineValidation covers the per-task engine knob's
// validation: unknown values are rejected, and every op, bus channel ops
// included (also inside repeat), is accepted on either body form.
func TestContinuationEngineValidation(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"unknown engine value",
			`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","engine":"fiber","body":[{"op":"execute","for":"1us"}]}]}`,
			`unknown engine "fiber"`,
		},
		{
			"continuation with send",
			`{"processors":[{"name":"p"}],"buses":[{"name":"bus"}],"channels":[{"name":"ch","bus":"bus","capacity":1}],
			 "tasks":[{"name":"t","processor":"p","engine":"continuation","body":[{"op":"send","channel":"ch","value":1}]}]}`,
			"",
		},
		{
			"continuation with recv inside repeat",
			`{"processors":[{"name":"p"}],"buses":[{"name":"bus"}],"channels":[{"name":"ch","bus":"bus","capacity":1}],
			 "tasks":[{"name":"t","processor":"p","engine":"continuation","body":[{"op":"repeat","count":2,"body":[{"op":"recv","channel":"ch"}]}]}]}`,
			"",
		},
		{
			"goroutine body keeps send",
			`{"processors":[{"name":"p"}],"buses":[{"name":"bus"}],"channels":[{"name":"ch","bus":"bus","capacity":1}],
			 "tasks":[{"name":"t","processor":"p","engine":"goroutine","body":[{"op":"send","channel":"ch","value":1}]}]}`,
			"",
		},
		{
			"continuation with affinity and fault",
			`{"processors":[{"name":"p","cores":2}],
			 "tasks":[{"name":"t","processor":"p","engine":"continuation","affinity":1,"period":"100us","body":[{"op":"execute","for":"10us"}]}],
			 "faults":[{"kind":"crash","task":"t","at":"50us"}]}`,
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestContinuationActivationsLower checks the perf motivation end to end at
// the scenario layer: the continuation form of a golden scenario must need
// fewer kernel activations than its goroutine form.
func TestContinuationActivationsLower(t *testing.T) {
	run := func(engine string) uint64 {
		b, err := withEngine(t, smpJitterJSON, engine).Build()
		if err != nil {
			t.Fatal(err)
		}
		b.Run()
		return b.Sys.K.Activations()
	}
	g, c := run("goroutine"), run("continuation")
	if c >= g {
		t.Errorf("continuation form used %d activations, goroutine form %d; want fewer", c, g)
	}
}

// TestUnsetEngineCompiles checks the default body form: every software task
// that leaves engine unset, loop and bus bodies included, compiles to a
// continuation, and the run's CSV trace and statistics are byte-identical to
// the same scenario forced onto goroutine bodies.
func TestUnsetEngineCompiles(t *testing.T) {
	for _, name := range []string{"periodic_rm.json", "soc_bus.json", "producer_consumer.json"} {
		t.Run(name, func(t *testing.T) {
			src := readCorpus(name)
			run := func(s *System) (*Built, string, string) {
				b, err := s.Build()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := b.RunChecked(); err != nil {
					t.Fatal(err)
				}
				var csv bytes.Buffer
				if err := b.Sys.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				return b, csv.String(), b.Sys.Stats(0).String()
			}
			def, err := Parse([]byte(src))
			if err != nil {
				t.Fatal(err)
			}
			b, csvD, statsD := run(def)
			for task, tk := range b.Tasks {
				if !tk.IsContinuation() {
					t.Errorf("task %q with unset engine did not compile", task)
				}
			}
			_, csvG, statsG := run(withEngine(t, src, "goroutine"))
			if csvD != csvG {
				t.Errorf("CSV traces differ between the default and goroutine bodies")
			}
			if statsD != statsG {
				t.Errorf("statistics differ between the default and goroutine bodies:\n%s\nvs\n%s", statsD, statsG)
			}
		})
	}
}
