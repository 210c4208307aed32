package scenario_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/psim"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// corpus returns the shipped non-sweep scenarios, parsed.
func corpus(t *testing.T) map[string]*scenario.System {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*scenario.System{}
	for _, f := range files {
		if strings.Contains(filepath.Base(f), "sweep") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		desc, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[filepath.Base(f)] = desc
	}
	if len(out) != 11 {
		t.Fatalf("found %d non-sweep corpus scenarios, want 11", len(out))
	}
	return out
}

// TestWithNeverWritesBase derives every corpus scenario on each engine, each
// task engine and with a policy/speed/cores/seed/horizon change, builds and
// runs every derived description (soc_shards also on two parallel shards),
// and requires the base's canonical form to be byte-identical afterwards.
func TestWithNeverWritesBase(t *testing.T) {
	seed := int64(7)
	horizon := 2 * sim.Ms
	overrides := []scenario.Override{
		{Engine: "procedural"},
		{Engine: "threaded"},
		{TaskEngine: "goroutine"},
		{TaskEngine: "continuation"},
		{Policy: "rr", Quantum: 10 * sim.Us, Speed: 2, Cores: 4, Seed: &seed, Horizon: &horizon},
	}
	for name, base := range corpus(t) {
		before, err := base.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range overrides {
			d, err := base.With(o)
			if err != nil {
				t.Fatalf("%s: With(%+v): %v", name, o, err)
			}
			built, err := d.Build()
			if err != nil {
				t.Fatalf("%s: With(%+v): build: %v", name, o, err)
			}
			_, _ = built.RunChecked() // failing runs are fine; writes to base are not
			if name == "soc_shards.json" {
				plan, err := d.Partition(2)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := psim.Run(d, plan); err != nil {
					t.Fatal(err)
				}
			}
		}
		after, err := base.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(before) {
			t.Errorf("%s: deriving and running changed the base description", name)
		}
	}
}

// affinity is a two-core processor with a task pinned to core 1.
const affinity = `{"horizon": "1ms", "processors": [{"name": "p", "cores": 2}],
  "tasks": [
    {"name": "a", "processor": "p", "affinity": 1, "period": "100us", "body": [{"op": "execute", "for": "20us"}]},
    {"name": "b", "processor": "p", "loop": true, "body": [{"op": "execute", "for": "30us"}]}
  ]}`

// TestWithRejectsInvalid checks that an override yielding a description
// Parse would reject, or naming a value no description takes, is an error —
// never a panic — and leaves the base alone.
func TestWithRejectsInvalid(t *testing.T) {
	base, err := scenario.Parse([]byte(affinity))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := base.CanonicalJSON()
	for _, c := range []struct {
		o    scenario.Override
		want string
	}{
		{scenario.Override{Cores: 1}, `affinity 1 out of range for processor "p" with 1 core(s)`},
		{scenario.Override{Domain: "global"}, `affinity requires the partitioned domain`},
		{scenario.Override{Engine: "magic"}, `unknown engine "magic"`},
		{scenario.Override{TaskEngine: "fiber"}, `unknown engine "fiber" (want goroutine or continuation)`},
		{scenario.Override{Policy: "lifo"}, `unknown policy "lifo"`},
		{scenario.Override{Policy: "rr"}, `requires a positive quantum`},
		{scenario.Override{Domain: "wide"}, `unknown domain "wide"`},
		{scenario.Override{Speed: -1}, `speed factor -1 must be positive`},
		{scenario.Override{Cores: -2}, `core count -2 must be at least 1`},
		{scenario.Override{Jitter: map[string]sim.Time{"ghost": 1}}, `jitter for unknown task "ghost"`},
		{scenario.Override{Jitter: map[string]sim.Time{"b": sim.Us}}, `jitter requires a period`},
		{scenario.Override{Jitter: map[string]sim.Time{"a": sim.Ms}}, `jitter requires a period larger than the jitter`},
	} {
		d, err := base.With(c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("With(%+v) = %v, %v; want an error containing %q", c.o, d, err, c.want)
		}
	}
	if after, _ := base.CanonicalJSON(); string(after) != string(before) {
		t.Error("a rejected override changed the base description")
	}
}

// TestWithAppliesOverride checks each field lands where it should and that
// the derived description re-parses from its canonical form: With yields
// only descriptions Parse accepts.
func TestWithAppliesOverride(t *testing.T) {
	base, err := scenario.Parse([]byte(`{"processors": [{"name": "p"}, {"name": "q"}],
	  "tasks": [{"name": "a", "processor": "p", "period": "100us", "body": [{"op": "execute", "for": "20us"}]}],
	  "faults": [{"kind": "wcet_overrun", "task": "a", "factor": 2, "probability": 0.5, "seed": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	seed, horizon := int64(0), sim.Ms
	ov := scenario.OverheadSpec{Scheduling: scenario.Duration(sim.Us)}
	d, err := base.With(scenario.Override{
		Horizon: &horizon, Engine: "threaded", Policy: "rr", Quantum: 5 * sim.Us,
		Speed: 0.5, Overheads: &ov, Cores: 2, Domain: "global", TaskEngine: "goroutine", Seed: &seed,
		Jitter: map[string]sim.Time{"a": 10 * sim.Us},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Processors {
		if p.Engine != "threaded" || p.Policy != "rr" || p.Quantum != scenario.Duration(5*sim.Us) ||
			p.Speed != 0.5 || p.Overheads != ov || p.Cores != 2 || p.Domain != "global" {
			t.Errorf("processor %s not overridden: %+v", p.Name, p)
		}
	}
	if a := d.Tasks[0]; a.Engine != "goroutine" || a.Jitter != scenario.Duration(10*sim.Us) {
		t.Errorf("task not overridden: %+v", a)
	}
	if d.Horizon != scenario.Duration(horizon) || d.Faults[0].Seed != 0 {
		t.Errorf("horizon %v, fault seed %d; want 1ms, 0", d.Horizon, d.Faults[0].Seed)
	}
	if p := base.Processors[0]; p.Engine != "" || p.Cores != 0 || base.Tasks[0].Engine != "" || base.Faults[0].Seed != 1 {
		t.Error("With wrote to its receiver")
	}
	data, err := d.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Parse(data); err != nil {
		t.Errorf("derived description does not re-parse: %v", err)
	}
}
