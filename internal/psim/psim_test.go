package psim

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pipelineJSON is a two-stage producer/consumer SoC split across two shards
// by explicit labels; the only coupling is the latency-bearing bus channel.
const pipelineJSON = `{
  "name": "psim-pipeline",
  "horizon": "200us",
  "processors": [
    {"name": "p1", "shard": "front"},
    {"name": "p2", "shard": "back"}
  ],
  "buses": [{"name": "noc", "perByte": "10ns", "arbitration": "100ns"}],
  "channels": [{"name": "data", "bus": "noc", "capacity": 64, "messageBytes": 16}],
  "tasks": [
    {"name": "producer", "processor": "p1", "priority": 5, "repeat": 40, "body": [
      {"op": "execute", "for": "700ns"},
      {"op": "send", "channel": "data", "value": 7}
    ]},
    {"name": "consumer", "processor": "p2", "priority": 5, "repeat": 40, "body": [
      {"op": "recv", "channel": "data"},
      {"op": "execute", "for": "1100ns"}
    ]}
  ]
}`

func parse(t *testing.T, js string) *scenario.System {
	t.Helper()
	desc, err := scenario.Parse([]byte(js))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return desc
}

// signature flattens a recorder into per-task state sequences plus
// per-object access sequences. Per-task and per-object suborders survive the
// parallel merge untouched (stable sort by time), so equality here means the
// parallel run is observationally equivalent to the sequential one.
func signature(rec *trace.Recorder) map[string][]string {
	sig := map[string][]string{}
	for c := range rec.StateChanges() {
		sig["task:"+c.Task] = append(sig["task:"+c.Task], fmt.Sprintf("%v/%d:%v", c.At, c.Core, c.State))
	}
	for a := range rec.Accesses() {
		sig["obj:"+a.Object] = append(sig["obj:"+a.Object], fmt.Sprintf("%v:%s:%v", a.At, a.Actor, a.Kind))
	}
	return sig
}

func diffSignatures(t *testing.T, want, got map[string][]string) {
	t.Helper()
	for k, w := range want {
		g := got[k]
		if len(g) != len(w) {
			t.Errorf("%s: %d records sequential, %d parallel", k, len(w), len(g))
			continue
		}
		for i := range w {
			if w[i] != g[i] {
				t.Errorf("%s[%d]: sequential %s, parallel %s", k, i, w[i], g[i])
				break
			}
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: present only in parallel trace", k)
		}
	}
}

func runSequential(t *testing.T, desc *scenario.System) (*scenario.Built, sim.Report, error) {
	t.Helper()
	built, err := desc.Build()
	if err != nil {
		t.Fatalf("sequential build: %v", err)
	}
	rep, runErr := built.RunChecked()
	return built, rep, runErr
}

func TestTwoShardPipelineMatchesSequential(t *testing.T) {
	seqDesc := parse(t, pipelineJSON)
	built, _, runErr := runSequential(t, seqDesc)
	if runErr != nil {
		t.Fatalf("sequential run: %v", runErr)
	}

	parDesc := parse(t, pipelineJSON)
	plan, err := parDesc.Partition(0)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if len(plan.Groups) != 2 || len(plan.Links) != 1 {
		t.Fatalf("want 2 groups 1 link, got %d groups %d links", len(plan.Groups), len(plan.Links))
	}
	res, err := Run(parDesc, plan)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("parallel simulation: %v", res.Err)
	}
	if res.End != built.Sys.Now() {
		t.Errorf("end time: sequential %v, parallel %v", built.Sys.Now(), res.End)
	}
	if res.Finish != built.Sys.FinishReason() {
		t.Errorf("finish: sequential %v, parallel %v", built.Sys.FinishReason(), res.Finish)
	}

	recs := make([]*trace.Recorder, len(res.Builts))
	for i, b := range res.Builts {
		recs[i] = b.Sys.Rec
	}
	merged := trace.MergeRecorders(recs, res.End)
	diffSignatures(t, signature(built.Sys.Rec), signature(merged))
}

// A one-group plan is the whole model on one kernel: Run refuses it (the
// runner sends such plans to the sequential engine) instead of spinning up
// the shard machinery for nothing.
func TestRunRefusesSingleGroupPlan(t *testing.T) {
	desc := parse(t, pipelineJSON)
	plan, err := desc.Partition(1)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if len(plan.Groups) != 1 {
		t.Fatalf("want 1 group, got %d", len(plan.Groups))
	}
	if res, err := Run(desc, plan); err == nil {
		t.Fatalf("one-group plan accepted: %+v", res)
	}
}

// A blocked receiver with no inbound traffic must terminate as a deadlock
// once the null messages carry every shard to the horizon.
func TestCrossShardDeadlockDetected(t *testing.T) {
	js := `{
  "name": "psim-starved",
  "horizon": "50us",
  "processors": [
    {"name": "p1", "shard": "a"},
    {"name": "p2", "shard": "b"}
  ],
  "buses": [{"name": "noc", "perByte": "10ns", "arbitration": "100ns"}],
  "channels": [{"name": "data", "bus": "noc", "capacity": 4}],
  "tasks": [
    {"name": "idle", "processor": "p1", "priority": 1, "body": [
      {"op": "execute", "for": "1us"}
    ]},
    {"name": "starved", "processor": "p2", "priority": 5, "body": [
      {"op": "recv", "channel": "data"}
    ]}
  ]
}`
	desc := parse(t, js)
	plan, err := desc.Partition(0)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	res, err := Run(desc, plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Finish != sim.FinishDeadlock {
		t.Fatalf("want deadlock finish, got %v (err %v)", res.Finish, res.Err)
	}
	se, ok := res.Err.(*sim.SimError)
	if !ok {
		t.Fatalf("want *sim.SimError, got %T (%v)", res.Err, res.Err)
	}
	found := false
	for _, b := range se.Blocked {
		if b.Name == "starved" {
			found = true
		}
	}
	if !found {
		t.Errorf("blocked list %v does not name the starved task", se.Blocked)
	}
}

// A model panic on one shard must abort the whole run and surface the panic.
func TestCrossShardPanicPropagates(t *testing.T) {
	js := `{
  "name": "psim-panic",
  "horizon": "50us",
  "processors": [
    {"name": "p1", "shard": "a"},
    {"name": "p2", "shard": "b"}
  ],
  "buses": [{"name": "noc", "perByte": "10ns", "arbitration": "100ns"}],
  "channels": [{"name": "data", "bus": "noc", "capacity": 4}],
  "tasks": [
    {"name": "crasher", "processor": "p1", "priority": 5, "body": [
      {"op": "execute", "for": "1us"},
      {"op": "send", "channel": "data", "value": 1}
    ]},
    {"name": "victim", "processor": "p2", "priority": 5, "repeat": 3, "body": [
      {"op": "recv", "channel": "data"},
      {"op": "execute", "for": "1us"}
    ]}
  ],
  "faults": [
    {"kind": "crash", "task": "crasher", "at": "500ns"}
  ]
}`
	desc := parse(t, js)
	plan, err := desc.Partition(0)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	res, err := Run(desc, plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// A crash fault aborts the task, not the kernel; the run then starves the
	// victim. Either a deadlock diagnosis or a clean limit finish is
	// acceptable here — what must not happen is a hang or a lost error.
	if res.Finish == sim.FinishQuiescent && res.Err == nil {
		t.Fatalf("want a diagnosed outcome, got quiescent success")
	}
}
