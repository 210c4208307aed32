package scenario

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// opTable lists every op the op-reference table (opRefs) accepts, with the
// actor kinds that may use it, a body exercising it and the objects that
// body references. Bodies are one op long unless the op needs a partner to
// be legal (unlock after lock, lat_stop or a measured submit after
// lat_start, nopreempt_end after nopreempt_begin) or a second instance to
// block (put, send) or to show its state (execute_trace).
var opTable = []struct {
	op      string
	kinds   string // the accepting actor kinds: sw, hw, isr
	body    string
	objects string // scenario fields the body references, as JSON members
}{
	{"execute", "sw isr", `{"op":"execute","for":"5us"}`, ``},
	{"execute_trace", "sw isr", `{"op":"execute_trace","trace":"tr"},{"op":"execute_trace","trace":"tr"}`,
		`"traces":{"tr":["3us","4us"]}`},
	{"delay", "sw hw", `{"op":"delay","for":"5us"}`, ``},
	{"wait", "sw hw", `{"op":"wait","event":"e"}`, `"events":[{"name":"e","policy":"counter"}]`},
	{"signal", "sw hw isr", `{"op":"signal","event":"e"}`, `"events":[{"name":"e","policy":"counter"}]`},
	{"put", "sw hw", `{"op":"put","queue":"q","value":1},{"op":"put","queue":"q","value":2}`,
		`"queues":[{"name":"q","capacity":1}]`},
	{"tryput", "sw hw isr", `{"op":"tryput","queue":"q","value":1},{"op":"tryput","queue":"q","value":2}`,
		`"queues":[{"name":"q","capacity":1}]`},
	{"get", "sw hw", `{"op":"get","queue":"q"}`, `"queues":[{"name":"q","capacity":1}]`},
	{"lock", "sw hw", `{"op":"lock","shared":"s"},{"op":"lock","shared":"s"}`, `"shared":[{"name":"s"}]`},
	{"unlock", "sw hw", `{"op":"lock","shared":"s"},{"op":"unlock","shared":"s"}`, `"shared":[{"name":"s"}]`},
	{"read", "sw hw", `{"op":"read","shared":"s"}`, `"shared":[{"name":"s"}]`},
	{"write", "sw hw", `{"op":"write","shared":"s","value":3}`, `"shared":[{"name":"s"}]`},
	{"nopreempt_begin", "sw", `{"op":"nopreempt_begin"},{"op":"execute","for":"5us"}`, ``},
	{"nopreempt_end", "sw", `{"op":"nopreempt_begin"},{"op":"nopreempt_end"}`, ``},
	{"setprio", "sw", `{"op":"setprio","value":1},{"op":"execute","for":"5us"}`, ``},
	{"yield", "sw", `{"op":"yield"}`, ``},
	{"lat_start", "sw hw isr", `{"op":"lat_start","constraint":"c"}`, `"constraints":[{"name":"c","limit":"1us"}]`},
	{"lat_stop", "sw hw isr", `{"op":"lat_start","constraint":"c"},{"op":"lat_stop","constraint":"c"}`,
		`"constraints":[{"name":"c","limit":"1us"}]`},
	{"kick", "sw isr", `{"op":"kick","watchdog":"w"}`, `"watchdogs":[{"name":"w","processor":"p","timeout":"10us"}]`},
	{"raise", "sw hw", `{"op":"raise","irq":"x"}`,
		`"irqs":[{"name":"x","processor":"p","priority":1,"body":[{"op":"execute","for":"2us"}]}]`},
	{"send", "sw hw", `{"op":"send","channel":"ch","value":1},{"op":"send","channel":"ch","value":2}`,
		`"buses":[{"name":"b","perByte":"10ns","arbitration":"1us"}],"channels":[{"name":"ch","bus":"b","capacity":1,"messageBytes":100}]`},
	{"recv", "sw hw", `{"op":"recv","channel":"ch"}`,
		`"buses":[{"name":"b"}],"channels":[{"name":"ch","bus":"b","capacity":1}]`},
	{"submit", "sw hw isr", `{"op":"lat_start","constraint":"c"},{"op":"submit","server":"srv","for":"3us","constraint":"c"}`,
		`"constraints":[{"name":"c","limit":"1ms"}],"servers":[{"name":"srv","processor":"p","kind":"polling","priority":9,"period":"20us","budget":"5us"}]`},
	{"repeat", "sw hw isr", `{"op":"repeat","count":2,"body":[{"op":"signal","event":"e"}]}`,
		`"events":[{"name":"e","policy":"counter"}]`},
}

// opScenario places body on one actor of the given kind: a software task, a
// hardware task, or the ISR of line "i" raised by a software task.
func opScenario(kind, body, objects string) string {
	actor := fmt.Sprintf(`"tasks":[{"name":"t","processor":"p","priority":5,"body":[%s]}]`, body)
	switch kind {
	case "hw":
		actor = fmt.Sprintf(`"hardware":[{"name":"h","body":[%s]}]`, body)
	case "isr":
		actor = fmt.Sprintf(`"irqs":[{"name":"i","processor":"p","priority":2,"body":[%s]}],
			"tasks":[{"name":"t","processor":"p","priority":5,"body":[{"op":"raise","irq":"i"},{"op":"execute","for":"20us"}]}]`, body)
	}
	members := []string{`"horizon":"200us"`, `"processors":[{"name":"p","overheads":{"scheduling":"1us","contextSave":"1us","contextLoad":"1us"}}]`, actor}
	if objects != "" {
		members = append(members, objects)
	}
	return "{" + strings.Join(members, ",") + "}"
}

// TestOpCoverageTable compiles every accepted (op, actor kind) pair and runs
// it against the reference interpreter: the compiled body on its goroutine
// form (and, for software tasks, on the continuation engine) must give the
// reference's trace and rtos_* metrics. Kinds an op is not listed for must be
// rejected by validation, so the table is the whitelist.
func TestOpCoverageTable(t *testing.T) {
	accepted := slices.Sorted(maps.Keys(opRefs))
	var listed []string
	for _, row := range opTable {
		listed = append(listed, row.op)
	}
	slices.Sort(listed)
	if !slices.Equal(listed, accepted) {
		t.Fatalf("opTable lists %v, the op-reference table accepts %v", listed, accepted)
	}
	for _, row := range opTable {
		for _, kind := range []string{"sw", "hw", "isr"} {
			t.Run(row.op+"/"+kind, func(t *testing.T) {
				src := opScenario(kind, row.body, row.objects)
				_, err := Parse([]byte(src))
				if !slices.Contains(strings.Fields(row.kinds), kind) {
					if err == nil {
						t.Fatalf("validation accepted %s on a %s body", row.op, kind)
					}
					return
				}
				if err != nil {
					t.Fatalf("validation rejected %s on a %s body: %v", row.op, kind, err)
				}
				hashG, metG := runScenario(t, withEngine(t, src, "goroutine"))
				var hashR, metR string
				if withReferenceBodies(func() { hashR, metR = runScenario(t, withEngine(t, src, "goroutine")) }) == 0 {
					t.Fatal("reference run built no body on the interpreter")
				}
				if hashG != hashR || metG != metR {
					t.Errorf("compiled body on goroutine form differs from the reference")
					diffScenarioTraces(t, src, "reference")
				}
				if kind == "sw" {
					hashC, metC := runScenario(t, withEngine(t, src, "continuation"))
					if hashC != hashR || metC != metR {
						t.Errorf("compiled body on continuation form differs from the reference")
						diffScenarioTraces(t, src, "continuation")
					}
				}
			})
		}
	}
}

// TestOpRefsMatchObjects checks the op-reference table against the objects
// column: the row's op names objects exactly when the row declares some, and
// without those declarations validation reports one unknown.
func TestOpRefsMatchObjects(t *testing.T) {
	for _, row := range opTable {
		var body []Op
		if err := json.Unmarshal([]byte("["+row.body+"]"), &body); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, op := range body {
			if op.Op == row.op {
				EachRef([]Op{op}, func(Ref) { n++ })
			}
		}
		if (n > 0) != (row.objects != "") {
			t.Errorf("%s: op names %d object(s), objects column %q", row.op, n, row.objects)
			continue
		}
		kind := strings.Fields(row.kinds)[0]
		_, err := Parse([]byte(opScenario(kind, row.body, "")))
		if n > 0 && (err == nil || !strings.Contains(err.Error(), ": unknown ")) {
			t.Errorf("%s: undeclared objects gave %v, want an unknown-object error", row.op, err)
		}
	}
}

// The op-reference table is read once per op by validation, partitioning
// and exploration: walking a body must not allocate.
func TestEachRefDoesNotAllocate(t *testing.T) {
	var body []Op
	for _, row := range opTable {
		var ops []Op
		if err := json.Unmarshal([]byte("["+row.body+"]"), &ops); err != nil {
			t.Fatal(err)
		}
		body = append(body, ops...)
	}
	n := 0
	if allocs := testing.AllocsPerRun(10, func() { EachRef(body, func(Ref) { n++ }) }); allocs != 0 {
		t.Errorf("EachRef allocated %v times per walk", allocs)
	}
}
