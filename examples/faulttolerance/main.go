// Fault tolerance: inject faults into a healthy design and watch the
// recovery machinery respond.
//
// Run with:
//
//	go run ./examples/faulttolerance
//
// A control task meets a 100us deadline comfortably — until a WCET-overrun
// fault quadruples its execution time for the first 300us (a cold cache, a
// misbehaving branch). Its restart-on-miss policy abandons each late job at
// the deadline and re-releases immediately. A second, independent fault
// hangs the heartbeat task forever in the middle of one of its jobs; the
// watchdog it feeds notices the missing kick and restarts it. RunChecked
// distinguishes this recovered run from a deadlock, and the fault-tolerance
// metrics quantify the damage.
package main

import (
	"fmt"
	"os"
	"slices"

	"repro/internal/analysis"
	"repro/internal/rtos"
	"repro/internal/sim"
)

func main() {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Policy:    rtos.PriorityPreemptive{},
		Overheads: rtos.UniformOverheads(2 * sim.Us),
	})

	// A 60us control job every 100us: utilization 0.6, no misses — until
	// the fault makes the job take 240us.
	ctrl := cpu.NewPeriodicTask("ctrl", rtos.TaskConfig{
		Priority: 10,
		Period:   100 * sim.Us,
		Deadline: 100 * sim.Us,
		OnMiss:   rtos.MissRestartTask,
	}, func(c *rtos.TaskCtx, cycle int) {
		c.Execute(60 * sim.Us)
	})
	ctrl.InjectWCETOverrun(rtos.WCETOverrun{Factor: 4, Until: 300 * sim.Us})

	// A short high-priority heartbeat that pets a 150us watchdog once per
	// period — even while ctrl is thrashing, the kicks keep coming.
	var wd *rtos.Watchdog
	beat := cpu.NewPeriodicTask("beat", rtos.TaskConfig{
		Priority: 20,
		Period:   100 * sim.Us,
	}, func(c *rtos.TaskCtx, cycle int) {
		wd.Kick()
		c.Execute(10 * sim.Us)
	})
	wd = cpu.NewWatchdog("beat.wd", 150*sim.Us, beat)
	// Stuck forever in the middle of the job released at 600us: the kicks
	// stop and only the watchdog restart recovers the task.
	beat.InjectHangAt(610*sim.Us, 0)

	rep, err := sys.RunChecked(sim.Ms)
	if err != nil {
		// A deadlock or model panic would land here with per-processor
		// context; the watchdog prevents that.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("finished %v at %v\n\n", rep.Reason, sys.Now())

	m := analysis.ComputeFaultMetrics(slices.Collect(sys.Rec.FaultEvents()), sys.Now())
	for _, t := range []*rtos.Task{ctrl, beat} {
		m.Jobs += int(t.CompletedCycles() + t.AbortedCycles())
		m.AbortedJobs += int(t.AbortedCycles())
	}
	m.Misses = len(sys.Constraints.Violations())
	fmt.Print(m.Report())

	fmt.Printf("\nctrl completed %d cycles (%d aborted); beat completed %d (%d aborted); watchdog fired %d time(s)\n",
		ctrl.CompletedCycles(), ctrl.AbortedCycles(), beat.CompletedCycles(), beat.AbortedCycles(), wd.Fired())
}
