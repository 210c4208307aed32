package sim

import (
	"fmt"
	"strings"
)

// FinishReason tells why a Run/RunUntil/RunChecked call returned. It lets
// callers distinguish a model that ran out of work because everything
// terminated cleanly from one whose processes are deadlocked, and both from a
// bounded run that simply hit its horizon.
type FinishReason uint8

const (
	// FinishNone: the kernel has not finished a run yet.
	FinishNone FinishReason = iota
	// FinishQuiescent: no further activity is possible and no process is
	// left waiting — the model terminated cleanly.
	FinishQuiescent
	// FinishDeadlock: no further activity is possible but at least one
	// non-daemon process is still blocked on events that can never fire
	// (deadlock or starvation).
	FinishDeadlock
	// FinishLimit: the run reached the RunUntil/RunFor horizon with activity
	// still pending.
	FinishLimit
	// FinishStopped: Stop was called from inside the simulation.
	FinishStopped
	// FinishPanic: a simulation process panicked (only reported through
	// RunChecked; Run re-raises the panic).
	FinishPanic
)

var finishNames = [...]string{
	FinishNone:      "none",
	FinishQuiescent: "quiescent",
	FinishDeadlock:  "deadlock",
	FinishLimit:     "limit",
	FinishStopped:   "stopped",
	FinishPanic:     "panic",
}

func (r FinishReason) String() string {
	if int(r) < len(finishNames) {
		return finishNames[r]
	}
	return "invalid"
}

// BlockedProc describes one process still waiting when the simulation ran
// out of activity: its name and the events it is subscribed to. HasTimeout
// is true when the wait also has a pending timeout (such a process is not
// deadlocked — it will wake).
type BlockedProc struct {
	Name       string
	WaitingOn  []string
	HasTimeout bool
}

func (b BlockedProc) String() string {
	w := "nothing"
	if len(b.WaitingOn) > 0 {
		w = strings.Join(b.WaitingOn, ", ")
	}
	if b.HasTimeout {
		w += " (timeout pending)"
	}
	return fmt.Sprintf("%s waiting on %s", b.Name, w)
}

// Report summarizes a checked simulation run.
type Report struct {
	// Reason tells why the run returned.
	Reason FinishReason
	// End is the simulated time the run finished at.
	End Time
	// DeltaCycles, Activations and MethodRuns are the kernel counters at the
	// end; MethodRuns counts callbacks that ran inline without costing a
	// thread switch (the denominator of the paper's §4 switch comparison).
	DeltaCycles uint64
	Activations uint64
	MethodRuns  uint64
	// Blocked lists the processes still waiting at the end (excluding
	// daemons) when Reason is FinishDeadlock, and is empty otherwise: a
	// panic's SimError carries its own list, and a limit or stop finish
	// leaves waiting processes that are not stuck.
	Blocked []BlockedProc
}

// SimError is the structured error RunChecked returns when the simulation
// panics or deadlocks: it carries the simulated time, the offending process
// (for panics), every blocked process plus what it waits on, and any
// higher-level diagnostic context registered with SetDiagnostic (e.g. the
// RTOS model reports each processor's running task).
type SimError struct {
	// At is the simulated time the failure was detected.
	At Time
	// Proc names the process that panicked; empty for a deadlock.
	Proc string
	// PanicValue is the recovered panic value; nil for a deadlock.
	PanicValue any
	// Blocked lists every non-daemon process still waiting and what it
	// waits on.
	Blocked []BlockedProc
	// Context holds diagnostic lines from the SetDiagnostic hook.
	Context []string
}

func (e *SimError) Error() string {
	var b strings.Builder
	if e.PanicValue != nil {
		fmt.Fprintf(&b, "sim: process %q panicked at %v: %v", e.Proc, e.At, e.PanicValue)
	} else {
		fmt.Fprintf(&b, "sim: deadlock at %v: %d process(es) blocked forever", e.At, len(e.Blocked))
	}
	for _, p := range e.Blocked {
		fmt.Fprintf(&b, "\n  blocked: %s", p)
	}
	for _, c := range e.Context {
		fmt.Fprintf(&b, "\n  %s", c)
	}
	return b.String()
}

// FinishReason reports why the most recent Run/RunUntil/RunFor/RunChecked
// call returned; FinishNone before the first run.
func (k *Kernel) FinishReason() FinishReason { return k.finish }

// SetDiagnostic registers a hook producing human-readable context lines for
// SimError (e.g. per-processor running tasks). The hook is called at failure
// time, outside any simulation process.
func (k *Kernel) SetDiagnostic(fn func() []string) { k.diagnostic = fn }

// BlockedProcs returns every non-daemon process currently in the Waiting
// state with the events it waits on, plus every unfinished strand not queued
// to run (waiting on its first sensitivity event), in creation order: a
// queued strand is runnable, like a process that is not waiting. After a run
// finishing with FinishDeadlock this names the deadlocked processes.
func (k *Kernel) BlockedProcs() []BlockedProc {
	var blocked []BlockedProc
	strands := k.strands
	for i := 0; i <= len(k.procs); i++ {
		// Strands created before process i come first.
		for ; len(strands) > 0 && strands[0].procsBefore <= i; strands = strands[1:] {
			if s := strands[0]; s.blocked() {
				blocked = append(blocked, BlockedProc{Name: s.name, WaitingOn: s.waitingOn, HasTimeout: s.WakePending()})
			}
		}
		if i == len(k.procs) {
			break
		}
		if p := k.procs[i]; p.blocked() {
			blocked = append(blocked, BlockedProc{Name: p.name, WaitingOn: p.WaitingOn(), HasTimeout: p.timeout != nil})
		}
	}
	return blocked
}

// blocked reports whether BlockedProcs lists the strand.
func (s *Strand) blocked() bool { return !s.finished && !s.m.queued }

// blocked reports whether BlockedProcs lists the process.
func (p *Proc) blocked() bool { return !p.daemon && p.state == ProcWaiting }

// anyBlocked reports whether BlockedProcs would list anything, without
// building the list.
func (k *Kernel) anyBlocked() bool {
	for _, s := range k.strands {
		if s.blocked() {
			return true
		}
	}
	for _, p := range k.procs {
		if p.blocked() {
			return true
		}
	}
	return false
}

func (k *Kernel) diagnose() []string {
	if k.diagnostic == nil {
		return nil
	}
	return k.diagnostic()
}

func (k *Kernel) report() Report {
	rep := Report{
		Reason:      k.finish,
		End:         k.now,
		DeltaCycles: k.deltaCount,
		Activations: k.activations,
		MethodRuns:  k.methodRuns,
	}
	if k.finish == FinishDeadlock {
		rep.Blocked = k.BlockedProcs()
	}
	return rep
}

// RunChecked executes the simulation until simulated time limit (pass
// TimeMax to run to exhaustion) and returns a structured report instead of
// panicking or returning silently:
//
//   - a model panic inside a simulation process is recovered into a
//     *SimError naming the process, the simulated time, and every blocked
//     process plus what it waits on;
//   - event starvation with processes still blocked is reported as a
//     *SimError with reason FinishDeadlock instead of a silent return;
//   - clean quiescence, reaching the limit, and Stop are distinguished by
//     Report.Reason.
//
// Like RunUntil, processes stay parked afterwards so the simulation
// can be continued (after a limit/stop finish) or inspected; call Shutdown
// when done.
func (k *Kernel) RunChecked(limit Time) (rep Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*SimError)
			if !ok {
				se = &SimError{At: k.now, PanicValue: r}
			}
			se.Blocked = k.BlockedProcs()
			se.Context = k.diagnose()
			k.finish = FinishPanic
			rep = k.report()
			err = se
		}
	}()
	k.run(limit)
	rep = k.report()
	if k.finish == FinishDeadlock {
		err = &SimError{At: k.now, Blocked: rep.Blocked, Context: k.diagnose()}
	}
	return rep, err
}
