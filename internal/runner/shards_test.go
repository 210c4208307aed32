package runner

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// A plan of one group — Shards: 1, or shard labels that all name one shard —
// runs on the sequential engine, so it must give the sequential run's bytes:
// same report, same artifacts, same outcome.
func TestSingleShardByteIdenticalToSequential(t *testing.T) {
	opts := Options{Timeline: true, Chronology: true, Analyze: true, Artifacts: KnownArtifacts}
	for _, name := range []string{"figure6.json", "soc_bus.json"} {
		data := readScenario(t, name)
		desc, err := scenario.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range desc.Processors {
			desc.Processors[i].Shard = "only"
		}
		if plan, err := desc.Partition(0); err != nil || len(plan.Groups) != 1 {
			t.Fatalf("%s: single-label plan is not one group (err %v)", name, err)
		}
		labeled, err := desc.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Run(data, opts, name)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		oneShard := opts
		oneShard.Shards = 1
		for _, c := range []struct {
			label string
			data  []byte
			opts  Options
		}{
			{"shards=1", data, oneShard},
			{"single label", labeled, opts},
		} {
			got, err := Run(c.data, c.opts, name)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.label, err)
			}
			if !bytes.Equal(seq.Report, got.Report) {
				t.Errorf("%s %s: report bytes differ\n--- sequential ---\n%s\n--- %s ---\n%s",
					name, c.label, seq.Report, c.label, got.Report)
			}
			for _, a := range opts.Artifacts {
				if !bytes.Equal(seq.Artifacts[a], got.Artifacts[a]) {
					t.Errorf("%s %s: artifact %s differs", name, c.label, a)
				}
			}
			if seq.SimError != got.SimError || seq.Finish != got.Finish || seq.End != got.End {
				t.Errorf("%s %s: outcome differs: sequential (%v, %s, %q), got (%v, %s, %q)",
					name, c.label, seq.End, seq.Finish, seq.SimError, got.End, got.Finish, got.SimError)
			}
		}
	}
}

// A labeled scenario opts into the parallel engine without any Shards
// option; the run must succeed and report the union of both shards.
func TestShardLabelsSelectParallelEngine(t *testing.T) {
	js := `{
  "name": "labeled",
  "horizon": "100us",
  "processors": [
    {"name": "p1", "shard": "front"},
    {"name": "p2", "shard": "back"}
  ],
  "buses": [{"name": "noc", "perByte": "10ns", "arbitration": "100ns"}],
  "channels": [{"name": "data", "bus": "noc", "capacity": 16, "messageBytes": 8}],
  "tasks": [
    {"name": "producer", "processor": "p1", "priority": 5, "repeat": 10, "body": [
      {"op": "execute", "for": "900ns"},
      {"op": "send", "channel": "data", "value": 1}
    ]},
    {"name": "consumer", "processor": "p2", "priority": 5, "repeat": 10, "body": [
      {"op": "recv", "channel": "data"},
      {"op": "execute", "for": "1300ns"}
    ]}
  ]
}`
	res, err := Run([]byte(js), Options{Artifacts: []string{"csv", "metrics"}}, "labeled")
	if err != nil {
		t.Fatal(err)
	}
	if res.SimError != "" {
		t.Fatalf("simulation error: %s", res.SimError)
	}
	report := string(res.Report)
	for _, task := range []string{"producer", "consumer"} {
		if !strings.Contains(report, task) {
			t.Errorf("report does not mention %s:\n%s", task, report)
		}
	}
	csv := string(res.Artifacts["csv"])
	if !strings.Contains(csv, "producer") || !strings.Contains(csv, "consumer") {
		t.Errorf("merged csv artifact incomplete")
	}
}

// The -shards flag on an unlabeled scenario partitions automatically; the
// parallel report must agree with the sequential one on the end time and
// the constraint verdict even when traces interleave differently.
func TestShardsOptionOnUnlabeledScenario(t *testing.T) {
	data := readScenario(t, "soc_bus.json")
	seq, err := Run(data, Options{}, "soc_bus.json")
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(data, Options{Shards: 2}, "soc_bus.json")
	if err != nil {
		t.Fatal(err)
	}
	if par.SimError != seq.SimError {
		t.Fatalf("sim error differs: %q vs %q", seq.SimError, par.SimError)
	}
	if par.End != seq.End || par.Finish != seq.Finish {
		t.Errorf("outcome differs: sequential (%v, %s), shards=2 (%v, %s)",
			seq.End, seq.Finish, par.End, par.Finish)
	}
	if par.ConstraintsOK != seq.ConstraintsOK {
		t.Errorf("constraint verdict differs")
	}
}
