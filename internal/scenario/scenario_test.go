package scenario

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestDurationUnmarshalNumeric(t *testing.T) {
	// Plain JSON numbers are picoseconds; strings carry units.
	src := `{
	  "horizon": 1000000,
	  "processors": [{"name": "p"}],
	  "tasks": [{"name": "t", "processor": "p", "body": [{"op": "execute", "for": 500000}]}]
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Horizon.Time() != sim.Us {
		t.Fatalf("horizon = %v, want 1us", s.Horizon.Time())
	}
	if s.Tasks[0].Body[0].For.Time() != 500*sim.Ns {
		t.Fatalf("for = %v, want 500ns", s.Tasks[0].Body[0].For.Time())
	}
	if _, err := Parse([]byte(`{"horizon": "bogus", "processors": [{"name":"p"}], "tasks": [{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`)); err == nil {
		t.Fatal("bad duration string accepted")
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]sim.Time{
		"5us":    5 * sim.Us,
		"1.5ms":  1500 * sim.Us,
		"250ns":  250 * sim.Ns,
		"3s":     3 * sim.Sec,
		"7ps":    7,
		" 10us ": 10 * sim.Us,
		"0us":    0,
	}
	for in, want := range cases {
		got, err := ParseDuration(in)
		if err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "5", "5 hours", "-3us", "us", "xs"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) succeeded", bad)
		}
	}
}

const figure6JSON = `{
  "name": "figure6",
  "horizon": "900us",
  "processors": [{
    "name": "Processor",
    "overheads": {"scheduling": "5us", "contextSave": "5us", "contextLoad": "5us"}
  }],
  "events": [
    {"name": "Clk", "policy": "fugitive"},
    {"name": "Event_1", "policy": "boolean"}
  ],
  "tasks": [
    {"name": "Function_1", "processor": "Processor", "priority": 5, "loop": true, "body": [
      {"op": "wait", "event": "Clk"},
      {"op": "execute", "for": "100us"},
      {"op": "signal", "event": "Event_1"},
      {"op": "execute", "for": "50us"}
    ]},
    {"name": "Function_2", "processor": "Processor", "priority": 3, "loop": true, "body": [
      {"op": "wait", "event": "Event_1"},
      {"op": "execute", "for": "120us"}
    ]},
    {"name": "Function_3", "processor": "Processor", "priority": 2, "loop": true, "body": [
      {"op": "execute", "for": "1ms"}
    ]}
  ],
  "hardware": [
    {"name": "Clock", "loop": true, "body": [
      {"op": "delay", "for": "500us"},
      {"op": "signal", "event": "Clk"}
    ]}
  ]
}`

// TestFigure6FromJSON elaborates the paper's Figure 6 system from its JSON
// description and checks the same annotated timings the native test checks:
// the declarative path and the Go API must agree exactly.
func TestFigure6FromJSON(t *testing.T) {
	s, err := Parse([]byte(figure6JSON))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Run()

	rec := b.Sys.Rec
	var f1Run, f2Start, f1Block sim.Time = -1, -1, -1
	for c := range rec.StateChanges() {
		switch {
		case c.Task == "Function_1" && c.State.String() == "running" && c.At >= 500*sim.Us && f1Run < 0:
			f1Run = c.At
		case c.Task == "Function_1" && c.State.String() == "waiting" && c.At >= 500*sim.Us && f1Block < 0:
			f1Block = c.At
		case c.Task == "Function_2" && c.State.String() == "running" && c.At >= 600*sim.Us && f2Start < 0:
			f2Start = c.At
		}
	}
	if f1Run != 515*sim.Us {
		t.Errorf("Function_1 preemption start = %v, want 515us", f1Run)
	}
	if f1Block != 665*sim.Us {
		t.Errorf("Function_1 end = %v, want 665us", f1Block)
	}
	if f2Start != 680*sim.Us {
		t.Errorf("Function_2 start = %v, want 680us", f2Start)
	}
}

func TestBuildAllRelationKinds(t *testing.T) {
	src := `{
	  "horizon": "10ms",
	  "processors": [
	    {"name": "p0", "policy": "rr", "quantum": "100us"},
	    {"name": "p1", "engine": "threaded", "policy": "edf"}
	  ],
	  "events": [{"name": "go", "policy": "counter"}],
	  "queues": [{"name": "q", "capacity": 2}],
	  "shared": [{"name": "sv", "initial": 7, "inherit": true}],
	  "constraints": [{"name": "lat", "limit": "1ms"}],
	  "tasks": [
	    {"name": "a", "processor": "p0", "priority": 1, "repeat": 3, "body": [
	      {"op": "lat_start", "constraint": "lat"},
	      {"op": "execute", "for": "50us"},
	      {"op": "put", "queue": "q", "value": 1},
	      {"op": "signal", "event": "go"},
	      {"op": "lat_stop", "constraint": "lat"}
	    ]},
	    {"name": "b", "processor": "p1", "priority": 2, "deadline": "2ms", "repeat": 3, "body": [
	      {"op": "wait", "event": "go"},
	      {"op": "get", "queue": "q"},
	      {"op": "lock", "shared": "sv"},
	      {"op": "execute", "for": "20us"},
	      {"op": "write", "shared": "sv", "value": 9},
	      {"op": "unlock", "shared": "sv"},
	      {"op": "repeat", "count": 2, "body": [{"op": "execute", "for": "10us"}]},
	      {"op": "nopreempt_begin"},
	      {"op": "execute", "for": "5us"},
	      {"op": "nopreempt_end"},
	      {"op": "setprio", "value": 4},
	      {"op": "yield"}
	    ]}
	  ],
	  "hardware": [
	    {"name": "hw", "repeat": 2, "body": [
	      {"op": "delay", "for": "1ms"},
	      {"op": "read", "shared": "sv"}
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
	if got := b.Queues["q"].Receives(); got != 3 {
		t.Errorf("queue receives = %d, want 3", got)
	}
	if got := b.Constraints["lat"].Count(); got != 3 {
		t.Errorf("constraint occurrences = %d, want 3", got)
	}
	if b.Shared["sv"].Writes() != 3 {
		t.Errorf("shared writes = %d", b.Shared["sv"].Writes())
	}
	if !b.Sys.Constraints.OK() {
		t.Errorf("violations: %v", b.Sys.Constraints.Violations())
	}
}

func TestValidationErrors(t *testing.T) {
	cases := map[string]string{
		"unknown field":      `{"bogus": 1}`,
		"no tasks":           `{"processors":[{"name":"p"}]}`,
		"dup processor":      `{"processors":[{"name":"p"},{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"bad engine":         `{"processors":[{"name":"p","engine":"quantum"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"bad policy":         `{"processors":[{"name":"p","policy":"lottery"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"rr sans quantum":    `{"processors":[{"name":"p","policy":"rr"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"unknown processor":  `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"x","body":[{"op":"execute","for":"1us"}]}]}`,
		"empty body":         `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[]}]}`,
		"unknown op":         `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"teleport"}]}]}`,
		"unknown event":      `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"wait","event":"nope"}]}]}`,
		"bad event policy":   `{"processors":[{"name":"p"}],"events":[{"name":"e","policy":"sticky"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"wait","event":"e"}]}]}`,
		"bad capacity":       `{"processors":[{"name":"p"}],"queues":[{"name":"q","capacity":0}],"tasks":[{"name":"t","processor":"p","body":[{"op":"get","queue":"q"}]}]}`,
		"hw execute":         `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}],"hardware":[{"name":"h","body":[{"op":"execute","for":"1us"}]}]}`,
		"loop and period":    `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","loop":true,"period":"1ms","body":[{"op":"execute","for":"1us"}]}]}`,
		"zero exec":          `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute"}]}]}`,
		"bad repeat":         `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"repeat","count":0,"body":[{"op":"execute","for":"1us"}]}]}]}`,
		"bad constraint":     `{"processors":[{"name":"p"}],"constraints":[{"name":"c","limit":"0us"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"bad duration":       `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"5 parsecs"}]}]}`,
		"jitter sans period": `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","jitter":"1us","body":[{"op":"execute","for":"1us"}]}]}`,
		"jitter over period": `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","period":"1us","jitter":"1us","body":[{"op":"execute","for":"1us"}]}]}`,
		// Retired knobs: strict parsing rejects them like any unknown field.
		"retired autoEngine": `{"autoEngine":false,"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"retired timedQueue": `{"timedQueue":"wheel","processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: expected error", name)
		} else if !strings.Contains(err.Error(), "scenario") && !strings.Contains(err.Error(), "json") {
			t.Errorf("%s: unhelpful error %v", name, err)
		}
	}
}

func TestIRQFromJSON(t *testing.T) {
	src := `{
	  "horizon": "2ms",
	  "processors": [{"name": "cpu"}],
	  "events": [{"name": "rx", "policy": "counter"}],
	  "queues": [{"name": "q", "capacity": 4}],
	  "irqs": [
	    {"name": "nic", "processor": "cpu", "priority": 5, "latency": "2us", "body": [
	      {"op": "execute", "for": "3us"},
	      {"op": "tryput", "queue": "q", "value": 7},
	      {"op": "signal", "event": "rx"}
	    ]}
	  ],
	  "tasks": [
	    {"name": "handler", "processor": "cpu", "priority": 9, "repeat": 3, "body": [
	      {"op": "wait", "event": "rx"},
	      {"op": "get", "queue": "q"},
	      {"op": "execute", "for": "10us"}
	    ]},
	    {"name": "bg", "processor": "cpu", "priority": 1, "loop": true, "body": [
	      {"op": "execute", "for": "100us"}
	    ]}
	  ],
	  "hardware": [
	    {"name": "dev", "repeat": 3, "body": [
	      {"op": "delay", "for": "300us"},
	      {"op": "raise", "irq": "nic"}
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
	if got := b.IRQs["nic"].Serviced(); got != 3 {
		t.Fatalf("serviced = %d, want 3", got)
	}
	if got := b.Queues["q"].Receives(); got != 3 {
		t.Fatalf("receives = %d, want 3", got)
	}
}

func TestIRQValidationErrors(t *testing.T) {
	base := `{"processors":[{"name":"p"}],"queues":[{"name":"q","capacity":1}],
	  "irqs":[{"name":"i","processor":"p","body":[%s]}],
	  "tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`
	bad := map[string]string{
		"isr wait":    `{"op":"wait","event":"e"}`,
		"isr delay":   `{"op":"delay","for":"1us"}`,
		"isr put":     `{"op":"put","queue":"q"}`,
		"isr lock":    `{"op":"lock","shared":"s"}`,
		"isr setprio": `{"op":"setprio","value":1}`,
	}
	for name, op := range bad {
		src := strings.Replace(base, "%s", op, 1)
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Unknown IRQ reference and bad processor.
	cases := []string{
		`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"raise","irq":"ghost"}]}]}`,
		`{"processors":[{"name":"p"}],"irqs":[{"name":"i","processor":"ghost","body":[{"op":"execute","for":"1us"}]}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		`{"processors":[{"name":"p"}],"irqs":[{"name":"i","processor":"p","body":[]}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
	}
	for i, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBusAndServerFromJSON(t *testing.T) {
	src := `{
	  "horizon": "20ms",
	  "processors": [{"name": "p0"}, {"name": "p1"}],
	  "buses": [{"name": "noc", "perByte": "10ns", "arbitration": "1us"}],
	  "channels": [{"name": "link", "bus": "noc", "capacity": 2, "messageBytes": 100}],
	  "constraints": [{"name": "svc", "limit": "10ms"}],
	  "servers": [
	    {"name": "aper", "processor": "p1", "kind": "deferrable",
	     "priority": 9, "period": "2ms", "budget": "500us"}
	  ],
	  "tasks": [
	    {"name": "producer", "processor": "p0", "priority": 1, "repeat": 4, "body": [
	      {"op": "execute", "for": "100us"},
	      {"op": "send", "channel": "link", "value": 1}
	    ]},
	    {"name": "consumer", "processor": "p1", "priority": 1, "repeat": 4, "body": [
	      {"op": "recv", "channel": "link"},
	      {"op": "execute", "for": "50us"},
	      {"op": "lat_start", "constraint": "svc"},
	      {"op": "submit", "server": "aper", "for": "200us", "constraint": "svc"}
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
	if got := b.Buses["noc"].Transfers(); got != 4 {
		t.Errorf("bus transfers = %d, want 4", got)
	}
	// Each transfer: 1us arbitration + 100*10ns = 2us.
	if got := b.Buses["noc"].BusyTime(); got != 8*sim.Us {
		t.Errorf("bus busy = %v, want 8us", got)
	}
	if got := b.Servers["aper"].Served(); got != 4 {
		t.Errorf("server served = %d, want 4", got)
	}
	if got := b.Constraints["svc"].Count(); got != 4 {
		t.Errorf("constraint count = %d, want 4", got)
	}
	if !b.Sys.Constraints.OK() {
		t.Errorf("violations: %v", b.Sys.Constraints.Violations())
	}
}

func TestBusServerValidationErrors(t *testing.T) {
	cases := map[string]string{
		"dup bus":         `{"processors":[{"name":"p"}],"buses":[{"name":"b"},{"name":"b"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"channel no bus":  `{"processors":[{"name":"p"}],"channels":[{"name":"c","bus":"ghost","capacity":1}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"channel cap":     `{"processors":[{"name":"p"}],"buses":[{"name":"b"}],"channels":[{"name":"c","bus":"b","capacity":0}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"bad server kind": `{"processors":[{"name":"p"}],"servers":[{"name":"s","processor":"p","kind":"lottery","period":"1ms","budget":"1us"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"server budget":   `{"processors":[{"name":"p"}],"servers":[{"name":"s","processor":"p","kind":"polling","period":"1ms","budget":"2ms"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`,
		"unknown channel": `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"send","channel":"ghost"}]}]}`,
		"unknown server":  `{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"submit","server":"ghost","for":"1us"}]}]}`,
		"submit no work":  `{"processors":[{"name":"p"}],"servers":[{"name":"s","processor":"p","kind":"polling","period":"1ms","budget":"1us"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"submit","server":"s"}]}]}`,
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPeriodicTaskFromJSON(t *testing.T) {
	src := `{
	  "horizon": "1ms",
	  "processors": [{"name": "p"}],
	  "tasks": [
	    {"name": "tick", "processor": "p", "period": "100us", "deadline": "100us", "body": [
	      {"op": "execute", "for": "10us"}
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
	st := b.Sys.Stats(0)
	ts, ok := st.TaskByName("tick")
	// Releases at 0, 100us, ..., 1ms: RunUntil includes events at exactly
	// the horizon, so 11 activations.
	if !ok || ts.Activations != 11 {
		t.Fatalf("activations = %+v, want 11", ts.Activations)
	}
}

// TestRepeatStrict checks that a task repeat count is honoured or rejected:
// a negative count, or a count beside loop or period, fails parsing with an
// error naming the task, on software and hardware tasks alike.
func TestRepeatStrict(t *testing.T) {
	sw := func(fields string) string {
		return `{"processors":[{"name":"p"}],"tasks":[{"name":"worker","processor":"p",` + fields +
			`,"body":[{"op":"execute","for":"1us"}]}]}`
	}
	hw := func(fields string) string {
		return `{"hardware":[{"name":"dev",` + fields + `,"body":[{"op":"delay","for":"1us"}]}]}`
	}
	cases := []struct {
		name, src, wantErr string
	}{
		{"sw negative", sw(`"repeat":-1`), `task "worker": negative repeat -1`},
		{"sw with loop", sw(`"repeat":3,"loop":true`), `task "worker": repeat and loop are mutually exclusive`},
		{"sw with period", sw(`"repeat":2,"period":"10us"`), `task "worker": repeat and period are mutually exclusive`},
		{"hw negative", hw(`"repeat":-4`), `task "dev": negative repeat -4`},
		{"hw with loop", hw(`"repeat":1,"loop":true`), `task "dev": repeat and loop are mutually exclusive`},
		{"sw repeat alone", sw(`"repeat":3`), ""},
		{"sw loop alone", sw(`"loop":true`), ""},
		{"sw period alone", sw(`"period":"10us"`), ""},
		{"hw repeat alone", hw(`"repeat":2`), ""},
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
