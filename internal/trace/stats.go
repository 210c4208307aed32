package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// TaskStats aggregates one task's time distribution over an observation
// window, as displayed in the statistics view of the paper's Figure 8.
type TaskStats struct {
	Task   string
	CPU    string
	Window sim.Time

	Running         sim.Time // activity on the processor (Fig. 8 mark 1)
	Ready           sim.Time // preempted / waiting for the processor (mark 2)
	Waiting         sim.Time // waiting for a synchronization
	WaitingResource sim.Time // waiting for mutual exclusion (mark 3)
	// Overhead is the RTOS context-save/load time charged on behalf of this
	// task. It overlaps the adjacent Ready/Waiting time (the task is not
	// running while the RTOS works for it), so it is informational and not
	// part of the state-ratio partition.
	Overhead sim.Time
	Inactive sim.Time // before creation / after termination

	Activations int // number of Ready->Running dispatches
	Preemptions int // number of Running->Ready transitions
}

// ActivityRatio is the fraction of the window spent running.
func (s TaskStats) ActivityRatio() float64 { return ratio(s.Running, s.Window) }

// PreemptedRatio is the fraction of the window spent ready but not running.
func (s TaskStats) PreemptedRatio() float64 { return ratio(s.Ready, s.Window) }

// WaitingRatio is the fraction of the window spent waiting for
// synchronizations.
func (s TaskStats) WaitingRatio() float64 { return ratio(s.Waiting, s.Window) }

// ResourceRatio is the fraction of the window spent blocked on mutual
// exclusion.
func (s TaskStats) ResourceRatio() float64 { return ratio(s.WaitingResource, s.Window) }

// OverheadRatio is the fraction of the window spent in RTOS overhead
// attributed to the task.
func (s TaskStats) OverheadRatio() float64 { return ratio(s.Overhead, s.Window) }

func ratio(part, whole sim.Time) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// ObjectStats aggregates a communication relation's usage over the window.
type ObjectStats struct {
	Object string
	Window sim.Time

	// Utilization is the time-weighted mean of depth/capacity (queue
	// occupancy, lock held ratio). Zero for relations that never reported
	// depth (pure events).
	Utilization float64
	// BusyTime is the total time with non-zero depth.
	Busy sim.Time

	Signals  int // AccessSignal count
	Sends    int // AccessSend count
	Receives int // AccessReceive count
	Reads    int // AccessRead count
	Writes   int // AccessWrite count
	Blocks   int // AccessBlocked count
}

// UtilizationRatio is the fraction of the window during which the relation
// was in use (non-zero occupancy), the "utilization ratio" of Figure 8.
func (s ObjectStats) UtilizationRatio() float64 { return ratio(s.Busy, s.Window) }

// ProcessorStats aggregates a processor's load over the window.
type ProcessorStats struct {
	CPU    string
	Window sim.Time
	// Cores is the number of cores observed in the trace (1 on single-core
	// processors); the ratios normalize by it so a fully loaded dual-core
	// reads 100%, not 200%.
	Cores int

	Busy     sim.Time // some task running (summed over cores)
	Overhead sim.Time // RTOS overhead (save + scheduling + load)
	Idle     sim.Time

	ContextSwitches int
}

// capacity is the total processor time available over the window.
func (s ProcessorStats) capacity() sim.Time { return s.Window * sim.Time(max(1, s.Cores)) }

// LoadRatio is the fraction of the processor capacity running application
// code.
func (s ProcessorStats) LoadRatio() float64 { return ratio(s.Busy, s.capacity()) }

// OverheadRatio is the fraction of the processor capacity spent in the RTOS.
func (s ProcessorStats) OverheadRatio() float64 { return ratio(s.Overhead, s.capacity()) }

// Stats is the full statistics report over an observation window.
type Stats struct {
	Window     sim.Time
	Tasks      []TaskStats
	Objects    []ObjectStats
	Processors []ProcessorStats
}

// ComputeStats aggregates the recorded trace over [0, end]. With end zero the
// recorder's natural end (last recorded timestamp) is used.
func (r *Recorder) ComputeStats(end sim.Time) Stats {
	if r == nil {
		return Stats{}
	}
	if end == 0 {
		end = r.End()
	}
	st := Stats{Window: end}

	// Per-task: state times from the segments, dispatch and preemption
	// counts from the transitions, each in one pass over the trace.
	segs := r.segmentsByTask(end)
	for i := range r.tasks {
		st.Tasks = append(st.Tasks, TaskStats{Task: r.tasks[i], Window: end})
	}
	prev := make([]TaskState, len(r.tasks)) // StateCreated before the first transition
	coresOf := map[Name]int{}
	for _, c := range r.changes.all {
		if c.cpu != 0 {
			coresOf[c.cpu] = max(coresOf[c.cpu], int(c.core)+1)
		}
		if c.at > end {
			continue
		}
		ti := r.names[c.task].task
		ts := &st.Tasks[ti]
		if c.cpu != 0 {
			ts.CPU = r.name(c.cpu)
		}
		if c.state == StateRunning {
			ts.Activations++
		}
		if prev[ti] == StateRunning && c.state == StateReady {
			ts.Preemptions++
		}
		prev[ti] = c.state
	}

	cpus := map[Name]*ProcessorStats{}
	processor := func(cpu Name) *ProcessorStats {
		cs := cpus[cpu]
		if cs == nil {
			cs = &ProcessorStats{CPU: r.name(cpu), Window: end}
			cpus[cpu] = cs
		}
		return cs
	}
	for ti := range st.Tasks {
		ts := &st.Tasks[ti]
		for _, seg := range segs[ti] {
			d := seg.End - seg.Start
			switch seg.State {
			case StateRunning:
				ts.Running += d
			case StateReady:
				ts.Ready += d
			case StateWaiting:
				ts.Waiting += d
			case StateWaitingResource:
				ts.WaitingResource += d
			case StateOverhead:
				ts.Overhead += d
			case StateCreated, StateTerminated:
				ts.Inactive += d
			}
		}
		// Account for time before the first transition.
		if len(segs[ti]) > 0 {
			ts.Inactive += segs[ti][0].Start
		} else {
			ts.Inactive = end
		}
		if ts.CPU != "" {
			processor(r.nameIndex[ts.CPU]).Busy += ts.Running
		}
	}

	for _, o := range r.overheads.all {
		if o.start >= end {
			continue
		}
		segEnd := min(o.end, end)
		if ti := r.names[o.task].task; o.task != 0 && ti >= 0 {
			st.Tasks[ti].Overhead += segEnd - o.start
		}
		cs := processor(o.cpu)
		cs.Overhead += segEnd - o.start
		if o.kind == OverheadContextLoad {
			cs.ContextSwitches++
		}
	}
	for h, cs := range cpus {
		cs.Cores = max(1, coresOf[h])
		cs.Idle = cs.capacity() - cs.Busy - cs.Overhead
		st.Processors = append(st.Processors, *cs)
	}
	sort.Slice(st.Processors, func(i, j int) bool { return st.Processors[i].CPU < st.Processors[j].CPU })

	// Per-object: utilization from depth samples, counts from accesses, each
	// in one pass indexed by the object's position in r.Objects().
	type depthAccum struct {
		last     depthRec
		weighted float64 // integral of depth/capacity dt
		seen     bool
	}
	accum := make([]depthAccum, len(r.objects))
	for i := range r.objects {
		st.Objects = append(st.Objects, ObjectStats{Object: r.objects[i], Window: end})
	}
	for _, d := range r.depths.all {
		if d.at > end {
			continue
		}
		oi := r.names[d.object].obj
		a := &accum[oi]
		if a.seen {
			dt := d.at - a.last.at
			if a.last.capacity > 0 {
				a.weighted += float64(dt) * float64(a.last.depth) / float64(a.last.capacity)
			}
			if a.last.depth > 0 {
				st.Objects[oi].Busy += dt
			}
		}
		a.last, a.seen = *d, true
	}
	for _, acc := range r.accesses.all {
		if acc.at > end {
			continue
		}
		os := &st.Objects[r.names[acc.object].obj]
		switch acc.kind {
		case AccessSignal:
			os.Signals++
		case AccessSend:
			os.Sends++
		case AccessReceive:
			os.Receives++
		case AccessRead:
			os.Reads++
		case AccessWrite:
			os.Writes++
		case AccessBlocked:
			os.Blocks++
		}
	}
	for oi := range st.Objects {
		a, os := &accum[oi], &st.Objects[oi]
		if a.seen && a.last.at < end {
			dt := end - a.last.at
			if a.last.capacity > 0 {
				a.weighted += float64(dt) * float64(a.last.depth) / float64(a.last.capacity)
			}
			if a.last.depth > 0 {
				os.Busy += dt
			}
		}
		if end > 0 {
			os.Utilization = a.weighted / float64(end)
		}
	}
	return st
}

// String renders the statistics as the textual analogue of Figure 8.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Statistics over %v\n", s.Window)
	if len(s.Tasks) > 0 {
		b.WriteString("\nTasks:\n")
		fmt.Fprintf(&b, "  %-16s %-10s %8s %8s %8s %8s %8s  %5s %5s\n",
			"task", "cpu", "run%", "ready%", "wait%", "mutex%", "ovhd%", "disp", "preem")
		for _, t := range s.Tasks {
			cpu := t.CPU
			if cpu == "" {
				cpu = "(hw)"
			}
			fmt.Fprintf(&b, "  %-16s %-10s %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%%  %5d %5d\n",
				t.Task, cpu,
				100*t.ActivityRatio(), 100*t.PreemptedRatio(), 100*t.WaitingRatio(),
				100*t.ResourceRatio(), 100*t.OverheadRatio(),
				t.Activations, t.Preemptions)
		}
	}
	if len(s.Processors) > 0 {
		b.WriteString("\nProcessors:\n")
		fmt.Fprintf(&b, "  %-16s %8s %8s %8s  %8s\n", "cpu", "load%", "ovhd%", "idle%", "switches")
		for _, c := range s.Processors {
			fmt.Fprintf(&b, "  %-16s %7.2f%% %7.2f%% %7.2f%%  %8d\n",
				c.CPU, 100*c.LoadRatio(), 100*c.OverheadRatio(),
				100*ratio(c.Idle, c.capacity()), c.ContextSwitches)
		}
	}
	if len(s.Objects) > 0 {
		b.WriteString("\nCommunications:\n")
		fmt.Fprintf(&b, "  %-20s %8s %8s  %6s %6s %6s %6s %6s %6s\n",
			"relation", "util%", "busy%", "signal", "send", "recv", "read", "write", "block")
		for _, o := range s.Objects {
			fmt.Fprintf(&b, "  %-20s %7.2f%% %7.2f%%  %6d %6d %6d %6d %6d %6d\n",
				o.Object, 100*o.Utilization, 100*o.UtilizationRatio(),
				o.Signals, o.Sends, o.Receives, o.Reads, o.Writes, o.Blocks)
		}
	}
	return b.String()
}

// TaskByName returns the stats row for the named task.
func (s Stats) TaskByName(name string) (TaskStats, bool) {
	for _, t := range s.Tasks {
		if t.Task == name {
			return t, true
		}
	}
	return TaskStats{}, false
}

// ObjectByName returns the stats row for the named relation.
func (s Stats) ObjectByName(name string) (ObjectStats, bool) {
	for _, o := range s.Objects {
		if o.Object == name {
			return o, true
		}
	}
	return ObjectStats{}, false
}

// ProcessorByName returns the stats row for the named processor.
func (s Stats) ProcessorByName(name string) (ProcessorStats, bool) {
	for _, p := range s.Processors {
		if p.CPU == name {
			return p, true
		}
	}
	return ProcessorStats{}, false
}
