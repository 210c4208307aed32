package experiments

import (
	"fmt"

	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PolicyResult is one row of the E10 policy ablation: the same periodic task
// set scheduled under a different policy, showing how the generic model's
// pluggable SchedulingPolicy changes system behaviour.
type PolicyResult struct {
	Policy          string
	DeadlineMisses  int
	Preemptions     uint64
	ContextSwitches int
	// WorstResponse is the worst observed response time of the
	// highest-rate task.
	WorstResponse sim.Time
	// CPULoad is the processor activity ratio.
	CPULoad float64
	// OverheadRatio is the fraction of time spent in the RTOS.
	OverheadRatio float64
}

// periodicSet describes the E10 synthetic task set: five periodic tasks with
// harmonic-ish periods at about 77% utilization.
var periodicSet = []struct {
	name     string
	period   sim.Time
	exec     sim.Time
	priority int
}{
	{"audio", 5 * sim.Ms, 1 * sim.Ms, 0},
	{"video", 10 * sim.Ms, 2 * sim.Ms, 0},
	{"control", 20 * sim.Ms, 3 * sim.Ms, 0},
	{"logger", 50 * sim.Ms, 5 * sim.Ms, 0},
	{"housekeeping", 100 * sim.Ms, 7 * sim.Ms, 0},
}

// RunPolicyComparison schedules the task set under the named policy and
// reports the outcome over the horizon.
func RunPolicyComparison(policy rtos.Policy, rateMonotonic bool, horizon sim.Time) PolicyResult {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{
		Engine:    rtos.EngineProcedural,
		Policy:    policy,
		Overheads: rtos.UniformOverheads(10 * sim.Us),
	})
	resp := sys.Constraints.NewLatency("audio.response", 5*sim.Ms)
	var tasks []*rtos.Task
	for _, spec := range periodicSet {
		spec := spec
		t := cpu.NewPeriodicTask(spec.name, rtos.TaskConfig{
			Period:   spec.period,
			Deadline: spec.period,
			Priority: spec.priority,
		}, func(c *rtos.TaskCtx, cycle int) {
			if spec.name == "audio" {
				resp.Start()
			}
			c.Execute(spec.exec)
			if spec.name == "audio" {
				resp.Stop()
			}
		})
		tasks = append(tasks, t)
	}
	if rateMonotonic {
		rtos.AssignRateMonotonic(tasks...)
	}
	sys.RunUntil(horizon)
	sys.Shutdown()

	st := sys.Stats(horizon)
	res := PolicyResult{
		Policy:         policy.Name(),
		DeadlineMisses: len(sys.Constraints.Violations()) - resp.ViolationCount(),
		Preemptions:    cpu.Preemptions(),
		WorstResponse:  resp.Worst(),
	}
	if rateMonotonic {
		res.Policy += "+rm"
	}
	if cs, ok := st.ProcessorByName("cpu"); ok {
		res.ContextSwitches = cs.ContextSwitches
		res.CPULoad = cs.LoadRatio()
		res.OverheadRatio = cs.OverheadRatio()
	}
	return res
}

// OverheadSweepResult is one row of the E8 experiment: the same workload
// under growing RTOS overheads, showing the overhead model's effect on
// real-time behaviour (the design-space-exploration use case of section 3.2).
type OverheadSweepResult struct {
	Overhead       sim.Time
	Formula        string
	DeadlineMisses int
	OverheadRatio  float64
	CPULoad        float64
	// MeanScheduling is the mean measured scheduling duration, relevant for
	// formula-based overheads.
	MeanScheduling sim.Time
}

// RunOverheadSweep runs the periodic set under rate-monotonic priorities
// with the given overhead configuration.
func RunOverheadSweep(ov rtos.Overheads, label string, horizon sim.Time) OverheadSweepResult {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{
		Engine:    rtos.EngineProcedural,
		Overheads: ov,
	})
	var tasks []*rtos.Task
	for _, spec := range periodicSet {
		spec := spec
		tasks = append(tasks, cpu.NewPeriodicTask(spec.name, rtos.TaskConfig{
			Period:   spec.period,
			Deadline: spec.period,
		}, func(c *rtos.TaskCtx, cycle int) {
			c.Execute(spec.exec)
		}))
	}
	rtos.AssignRateMonotonic(tasks...)
	sys.RunUntil(horizon)
	sys.Shutdown()

	st := sys.Stats(horizon)
	res := OverheadSweepResult{Formula: label, DeadlineMisses: len(sys.Constraints.Violations())}
	if cs, ok := st.ProcessorByName("cpu"); ok {
		res.OverheadRatio = cs.OverheadRatio()
		res.CPULoad = cs.LoadRatio()
	}
	var schedTotal sim.Time
	var schedCount int
	for o := range sys.Rec.Overheads() {
		if o.Kind == trace.OverheadScheduling {
			schedTotal += o.End - o.Start
			schedCount++
		}
	}
	if schedCount > 0 {
		res.MeanScheduling = schedTotal / sim.Time(schedCount)
	}
	return res
}

// PolicySuite runs the standard E10 policy ablation.
func PolicySuite(horizon sim.Time) []PolicyResult {
	return []PolicyResult{
		RunPolicyComparison(rtos.PriorityPreemptive{}, true, horizon),
		RunPolicyComparison(rtos.PriorityPreemptive{}, false, horizon),
		RunPolicyComparison(rtos.FIFO{}, false, horizon),
		RunPolicyComparison(rtos.RoundRobin{Slice: 2 * sim.Ms}, false, horizon),
		RunPolicyComparison(rtos.EDF{}, false, horizon),
	}
}

// OverheadSuite runs the standard E8 overhead sweep.
func OverheadSuite(horizon sim.Time) []OverheadSweepResult {
	out := []OverheadSweepResult{
		RunOverheadSweep(rtos.Overheads{}, "none", horizon),
	}
	for _, d := range []sim.Time{5 * sim.Us, 50 * sim.Us, 200 * sim.Us, 500 * sim.Us} {
		out = append(out, RunOverheadSweep(rtos.UniformOverheads(d), fmt.Sprintf("fixed %v", d), horizon))
	}
	out = append(out, RunOverheadSweep(rtos.Overheads{
		Scheduling:  rtos.PerReadyTask(20*sim.Us, 20*sim.Us),
		ContextSave: rtos.Fixed(20 * sim.Us),
		ContextLoad: rtos.Fixed(20 * sim.Us),
	}, "20us + 20us/ready", horizon))
	return out
}
