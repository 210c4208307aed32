package scenario

import (
	"strings"
	"testing"
)

// FuzzParseDuration checks the duration parser never panics and that
// accepted values round-trip through sim.Time non-negatively.
func FuzzParseDuration(f *testing.F) {
	for _, seed := range []string{"5us", "1.5ms", "0ps", "3s", "250ns", "-1us", "", "x", "999999999999s", "1e3us", " 7ms "} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDuration(s)
		if err == nil && d < 0 {
			t.Fatalf("ParseDuration(%q) accepted a negative duration %v", s, d)
		}
	})
}

// FuzzParse checks the scenario parser never panics on arbitrary JSON and
// that everything it accepts also elaborates and simulates briefly without
// panicking.
func FuzzParse(f *testing.F) {
	f.Add(figure6JSON)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`)
	f.Add(`{"bogus":1}`)
	f.Add(`not json at all`)
	f.Add(`{"processors":[{"name":"p","policy":"rr","quantum":"1us"}],"queues":[{"name":"q","capacity":1}],"tasks":[{"name":"t","processor":"p","repeat":2,"body":[{"op":"put","queue":"q"},{"op":"get","queue":"q"}]}]}`)
	// Fault-injection section seeds: every fault kind, a watchdog with its
	// kick op, a recovery policy, and descriptions the validator must reject
	// (bad kind, bad factor, onMiss without a period, cross-CPU watchdog).
	f.Add(`{"horizon":"1ms","processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","period":"100us","onMiss":"restart","body":[{"op":"execute","for":"40us"}]}],"faults":[{"kind":"wcet_overrun","task":"t","factor":3,"probability":0.5,"seed":7}]}`)
	f.Add(`{"horizon":"1ms","processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","period":"100us","onMiss":"abort","body":[{"op":"execute","for":"40us"}]}],"faults":[{"kind":"crash","task":"t","at":"120us"},{"kind":"hang","task":"t","at":"320us","for":"30us"}]}`)
	f.Add(`{"horizon":"1ms","processors":[{"name":"p"}],"irqs":[{"name":"i","processor":"p","priority":1,"body":[{"op":"execute","for":"2us"}]}],"tasks":[{"name":"t","processor":"p","period":"100us","body":[{"op":"execute","for":"10us"},{"op":"raise","irq":"i"}]}],"faults":[{"kind":"irq_drop","irq":"i","probability":0.5,"seed":3},{"kind":"irq_latency","irq":"i","extra":"5us","probability":0.5,"seed":4}]}`)
	f.Add(`{"horizon":"1ms","processors":[{"name":"p"}],"watchdogs":[{"name":"w","processor":"p","timeout":"150us","task":"t"}],"tasks":[{"name":"t","processor":"p","period":"100us","body":[{"op":"kick","watchdog":"w"},{"op":"execute","for":"40us"}]}],"faults":[{"kind":"hang","task":"t","at":"210us"}]}`)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}],"faults":[{"kind":"meteor","task":"t"}]}`)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}],"faults":[{"kind":"wcet_overrun","task":"t","factor":0.5}]}`)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","onMiss":"restart","body":[{"op":"execute","for":"1us"}]}]}`)
	f.Add(`{"processors":[{"name":"a"},{"name":"b"}],"watchdogs":[{"name":"w","processor":"a","timeout":"1us","task":"t"}],"tasks":[{"name":"t","processor":"b","body":[{"op":"execute","for":"1us"}]}]}`)
	// Explore-block seeds: a valid block, plus descriptions the validator
	// must reject (negative bounds, unknown task, jitter not below the
	// period, unknown expectedMiss task, jitter on a non-periodic task).
	f.Add(`{"horizon":"1ms","processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","period":"100us","body":[{"op":"execute","for":"10us"}]}],"explore":{"maxRuns":16,"maxDepth":8,"jitterSteps":3,"maxBranch":6,"jitter":{"t":"40us"},"expectedMiss":["t"],"maxInversion":"500us","checkEngines":true}}`)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","period":"100us","body":[{"op":"execute","for":"10us"}]}],"explore":{"maxRuns":-1}}`)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","period":"100us","body":[{"op":"execute","for":"10us"}]}],"explore":{"jitter":{"ghost":"10us"}}}`)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","period":"100us","body":[{"op":"execute","for":"10us"}]}],"explore":{"jitter":{"t":"100us"}}}`)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","period":"100us","body":[{"op":"execute","for":"10us"}]}],"explore":{"expectedMiss":["ghost"]}}`)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}],"explore":{"jitter":{"t":"1us"}}}`)
	// The retired timedQueue knob: strict parsing rejects the field.
	f.Add(`{"timedQueue":"heap","processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`)
	f.Add(`{"timedQueue":"btree","processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`)
	// Per-task body-form seeds: a continuation task over blocking comm ops, a
	// continuation task with affinity + a crash fault, plus descriptions the
	// validator must reject (unknown engine value, continuation with a bus op,
	// also nested inside repeat).
	f.Add(`{"horizon":"1ms","processors":[{"name":"p"}],"queues":[{"name":"q","capacity":1}],"events":[{"name":"e"}],"tasks":[{"name":"t","processor":"p","engine":"continuation","loop":true,"body":[{"op":"execute","for":"5us"},{"op":"put","queue":"q"},{"op":"signal","event":"e"}]},{"name":"u","processor":"p","engine":"continuation","loop":true,"body":[{"op":"get","queue":"q"},{"op":"wait","event":"e"},{"op":"execute","for":"3us"}]}]}`)
	f.Add(`{"horizon":"1ms","processors":[{"name":"p","cores":2}],"tasks":[{"name":"t","processor":"p","engine":"continuation","affinity":1,"period":"100us","body":[{"op":"execute","for":"10us"}]}],"faults":[{"kind":"crash","task":"t","at":"50us"}]}`)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","engine":"fiber","body":[{"op":"execute","for":"1us"}]}]}`)
	f.Add(`{"processors":[{"name":"p"}],"buses":[{"name":"b"}],"channels":[{"name":"ch","bus":"b","capacity":1}],"tasks":[{"name":"t","processor":"p","engine":"continuation","body":[{"op":"send","channel":"ch","value":1}]}]}`)
	f.Add(`{"processors":[{"name":"p"}],"buses":[{"name":"b"}],"channels":[{"name":"ch","bus":"b","capacity":1}],"tasks":[{"name":"t","processor":"p","engine":"continuation","body":[{"op":"repeat","count":2,"body":[{"op":"recv","channel":"ch"}]}]}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse([]byte(src))
		if err != nil {
			return
		}
		// Parsed OK: elaboration must succeed and a bounded run must not
		// panic. Cap the horizon to keep the fuzzer fast.
		if s.Horizon == 0 || s.Horizon > Duration(1_000_000_000) {
			s.Horizon = Duration(1_000_000_000) // 1ms
		}
		// Skip pathological task counts.
		if len(s.Tasks)+len(s.Hardware) > 16 {
			return
		}
		b, err := s.Build()
		if err != nil {
			t.Fatalf("validated scenario failed to build: %v", err)
		}
		b.Run()
	})
}

// FuzzCanonicalHash checks the canonical-hash fixed point on arbitrary
// inputs: whatever parses must canonicalize, the canonical form must itself
// parse, and hashing it must reproduce the original hash (otherwise the
// rtossimd result cache would miss — or worse, collide — on re-submitted
// configurations).
func FuzzCanonicalHash(f *testing.F) {
	f.Add(figure6JSON)
	f.Add(hashBase)
	f.Add(`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`)
	// Duration spelling and field order must not move the hash; the retired
	// autoEngine knob is rejected by strict parsing.
	f.Add(`{"horizon":1000000000,"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":1000000}]}]}`)
	f.Add(`{"tasks":[{"body":[{"for":"1us","op":"execute"}],"processor":"p","name":"t"}],"processors":[{"name":"p"}],"horizon":"1us"}`)
	f.Add(`{"autoEngine":true,"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`)
	f.Add(`{"autoEngine":false,"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute","for":"1us"}]}]}`)
	f.Add(`{"traces":{"b":["1us"],"a":["2us","3us"]},"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","body":[{"op":"execute_trace","trace":"a"}]}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse([]byte(src))
		if err != nil {
			return
		}
		h1, err := s.Hash()
		if err != nil {
			t.Fatalf("parsed scenario failed to hash: %v", err)
		}
		canon, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("parsed scenario failed to canonicalize: %v", err)
		}
		h2, err := HashBytes(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not re-parse: %v", canon, err)
		}
		if h1 != h2 {
			t.Fatalf("canonical form re-hashes %s, want %s (canon: %s)", h2, h1, canon)
		}
	})
}

// TestFuzzSeedsAsUnitTests keeps the seed corpus exercised in plain `go
// test` runs (the fuzz engine itself only runs with -fuzz).
func TestFuzzSeedsAsUnitTests(t *testing.T) {
	if _, err := Parse([]byte(figure6JSON)); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse([]byte("not json")); err == nil || !strings.Contains(err.Error(), "scenario") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}
