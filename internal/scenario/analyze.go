package scenario

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// WCET statically computes a task body's processor demand: the sum of its
// execute durations, each execute_trace charged the largest entry of its
// trace (looked up in traces), with repeat blocks multiplied out. Blocking
// operations contribute no processor time. This is the WCET a periodic
// task's analysis uses, assuming the annotated durations are worst-case.
func WCET(ops []Op, traces map[string][]Duration) sim.Time {
	var total sim.Time
	for _, op := range ops {
		switch op.Op {
		case "execute":
			total += op.For.Time()
		case "execute_trace":
			if tr := traces[op.Trace]; len(tr) > 0 {
				total += slices.Max(tr).Time()
			}
		case "repeat":
			total += sim.Time(op.Count) * WCET(op.Body, traces)
		}
	}
	return total
}

// AnalyzeProcessor extracts the periodic tasks bound to the named processor
// as analysis task specs (WCET from the body, period, deadline, jitter) with
// exactly the priorities the simulation will use — equal priorities analyse
// pessimistically, matching the FIFO tie-breaking of the scheduler. It
// errors when the processor has no periodic tasks. Apply analysis.AssignRM
// to the result to evaluate a rate-monotonic re-prioritization.
func (s *System) AnalyzeProcessor(cpu string) ([]analysis.TaskSpec, error) {
	var specs []analysis.TaskSpec
	for _, t := range s.Tasks {
		if t.Processor != cpu || t.Period <= 0 {
			continue
		}
		wcet := WCET(t.Body, s.Traces)
		if wcet <= 0 {
			return nil, fmt.Errorf("scenario: periodic task %q has no execute time to analyse", t.Name)
		}
		specs = append(specs, analysis.TaskSpec{
			Name:     t.Name,
			Period:   t.Period.Time(),
			Deadline: t.Deadline.Time(),
			WCET:     wcet,
			Jitter:   t.Jitter.Time(),
			Priority: t.Priority,
		})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("scenario: processor %q has no periodic tasks to analyse", cpu)
	}
	return specs, nil
}

// AnalysisReport renders schedulability reports for every processor that
// carries periodic tasks; processors without any are skipped. The switch
// overhead is taken as the sum of the processor's fixed context-save,
// scheduling and context-load durations.
func (s *System) AnalysisReport() string {
	out := ""
	for _, p := range s.Processors {
		specs, err := s.AnalyzeProcessor(p.Name)
		if err != nil {
			continue
		}
		overhead := p.Overheads.ContextSave.Time() +
			p.Overheads.Scheduling.Time() +
			p.Overheads.ContextLoad.Time()
		out += fmt.Sprintf("--- processor %s ---\n", p.Name)
		out += analysis.Report(specs, overhead)
	}
	if out == "" {
		return "no periodic tasks to analyse\n"
	}
	return out
}
