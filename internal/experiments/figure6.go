// Package experiments reconstructs every figure and claim of the paper's
// evaluation (sections 4 and 5) on top of the RTOS model. Each experiment is
// a plain function returning structured results, shared by the unit tests,
// the cmd/experiments harness and the benchmark suite. DESIGN.md carries the
// experiment index (E1..E11) mapping each function to the paper artefact it
// regenerates.
package experiments

import (
	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Figure6Overhead is the RTOS overhead used throughout section 5: "we have
// defined a RTOS that has a SchedulingDuration, a TaskContextLoad and a
// TaskContextSave that all equal to 5µs".
const Figure6Overhead = 5 * sim.Us

// Figure6 reproduces the system of the paper's Figure 6: a hardware task
// Clock and three software tasks Function_1 (priority 5), Function_2
// (priority 3) and Function_3 (priority 2) on one processor under
// priority-based preemptive scheduling with 5µs RTOS overheads.
//
// Behaviour (section 5): the Clock notifies the Clk event and awakes
// Function_1 (1), which preempts Function_3. During its execution Function_1
// sends Event_1 (2) and awakes Function_2, which does not preempt because of
// its lower priority. When Function_1 ends, Function_2 starts; when
// Function_2 ends, Function_3 resumes where it was preempted.
type Figure6 struct {
	Sys *rtos.System
	CPU *rtos.Processor

	Clk    *comm.Event
	Event1 *comm.Event

	F1, F2, F3 *rtos.Task

	// ClockPeriod is the Clk notification period.
	ClockPeriod sim.Time
}

// Figure6Config parameterizes the scenario; the zero value gives the
// canonical setup measured in EXPERIMENTS.md.
type Figure6Config struct {
	Engine rtos.EngineKind
	// Overhead is the uniform RTOS overhead; defaults to Figure6Overhead.
	Overhead sim.Time
	// NoOverheadDefault suppresses the default so Overhead zero means zero.
	NoOverheadDefault bool
}

// BuildFigure6 constructs the system without running it.
func BuildFigure6(cfg Figure6Config) *Figure6 {
	ov := cfg.Overhead
	if ov == 0 && !cfg.NoOverheadDefault {
		ov = Figure6Overhead
	}
	f := &Figure6{ClockPeriod: 500 * sim.Us}
	f.Sys = rtos.NewSystem()
	f.CPU = f.Sys.NewProcessor("Processor", rtos.Config{
		Engine:    cfg.Engine,
		Policy:    rtos.PriorityPreemptive{},
		Overheads: rtos.UniformOverheads(ov),
	})
	f.Clk = comm.NewEvent(f.Sys.Rec, "Clk", comm.Fugitive)
	f.Event1 = comm.NewEvent(f.Sys.Rec, "Event_1", comm.Boolean)

	f.F1 = f.CPU.NewTask("Function_1", rtos.TaskConfig{Priority: 5}, func(c *rtos.TaskCtx) {
		for {
			f.Clk.Wait(c)
			c.Execute(100 * sim.Us)
			f.Event1.Signal(c)
			c.Execute(50 * sim.Us)
		}
	})
	f.F2 = f.CPU.NewTask("Function_2", rtos.TaskConfig{Priority: 3}, func(c *rtos.TaskCtx) {
		for {
			f.Event1.Wait(c)
			c.Execute(120 * sim.Us)
		}
	})
	f.F3 = f.CPU.NewTask("Function_3", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
		for {
			c.Execute(1000 * sim.Us)
		}
	})
	f.Sys.NewHWTask("Clock", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		for {
			c.Wait(f.ClockPeriod)
			f.Clk.Signal(c)
		}
	})
	return f
}

// Figure6Result carries the measurements corresponding to the annotations of
// Figure 6.
type Figure6Result struct {
	Fig *Figure6

	// ClockEdge is the first Clk notification instant (annotation 1).
	ClockEdge sim.Time
	// F1PreemptStart is when Function_1 starts running after that edge;
	// F1PreemptStart-ClockEdge is the preemption overhead (annotation b),
	// save+scheduling+load = 15µs in the canonical setup.
	F1PreemptStart sim.Time
	// Event1Signal is when Function_1 sends Event_1 (annotation 2).
	Event1Signal sim.Time
	// F2ReadyAt is when Function_2 becomes ready; equal to Event1Signal —
	// no overhead is charged because no preemption happens (annotation c).
	F2ReadyAt sim.Time
	// F1End is when Function_1 blocks at the end of its processing.
	F1End sim.Time
	// F2Start is when Function_2 starts running; F2Start-F1End is the
	// end-of-task overhead (annotation a), 15µs in the canonical setup.
	F2Start sim.Time
	// F3ResumeAt is when Function_3 resumes after Function_2 blocks.
	F3ResumeAt sim.Time
	// Activations is the kernel thread-switch count of the run.
	Activations uint64
}

// RunFigure6 builds and simulates the Figure 6 system for one full clock
// cycle plus slack, extracting the annotated measurements from the trace.
func RunFigure6(cfg Figure6Config) *Figure6Result {
	f := BuildFigure6(cfg)
	horizon := f.ClockPeriod + 400*sim.Us
	f.Sys.RunUntil(horizon)
	r := &Figure6Result{Fig: f, Activations: f.Sys.K.Activations()}
	f.Sys.Shutdown()

	rec := f.Sys.Rec
	r.ClockEdge = f.ClockPeriod
	r.F1PreemptStart = firstStateAfter(rec, "Function_1", trace.StateRunning, r.ClockEdge, horizon)
	r.Event1Signal = firstAccess(rec, "Function_1", "Event_1", trace.AccessSignal)
	r.F2ReadyAt = firstStateAfter(rec, "Function_2", trace.StateReady, r.ClockEdge, horizon)
	r.F1End = firstStateAfter(rec, "Function_1", trace.StateWaiting, r.F1PreemptStart, horizon)
	r.F2Start = firstStateAfter(rec, "Function_2", trace.StateRunning, r.F2ReadyAt, horizon)
	r.F3ResumeAt = firstStateAfter(rec, "Function_3", trace.StateRunning, r.F2Start, horizon)
	return r
}

// firstStateAfter returns the instant of the first transition of task into
// state within [from, to], or -1.
func firstStateAfter(rec *trace.Recorder, task string, s trace.TaskState, from, to sim.Time) sim.Time {
	for c := range rec.StateChanges() {
		if c.Task == task && c.State == s && c.At >= from && c.At <= to {
			return c.At
		}
	}
	return -1
}

// firstAccess returns the instant of the first matching communication
// access, or -1.
func firstAccess(rec *trace.Recorder, actor, object string, kind trace.AccessKind) sim.Time {
	for a := range rec.Accesses() {
		if a.Actor == actor && a.Object == object && a.Kind == kind {
			return a.At
		}
	}
	return -1
}

// overheadBetween sums the overhead segments on cpu fully inside [from, to].
func overheadBetween(rec *trace.Recorder, cpu string, from, to sim.Time) sim.Time {
	var total sim.Time
	for o := range rec.Overheads() {
		if o.CPU == cpu && o.Start >= from && o.End <= to {
			total += o.End - o.Start
		}
	}
	return total
}
