package sim

import (
	"strings"
	"testing"
)

// TestRunForOverflowClamps is the regression test for the Time overflow in
// RunFor: starting from a non-zero now, RunFor(TimeMax) used to compute
// now + d < now and panic "RunUntil into the past".
func TestRunForOverflowClamps(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		p.Wait(Us)
	})
	k.RunFor(Us)
	if k.Now() != Us {
		t.Fatalf("now = %v, want 1us", k.Now())
	}
	k.RunFor(TimeMax) // must clamp, not panic
	if k.FinishReason() != FinishQuiescent {
		t.Fatalf("finish = %v, want quiescent", k.FinishReason())
	}
	k.Shutdown()
}

// TestNotifyInOverflowClamps checks that a huge relative notification is
// clamped to TimeMax instead of wrapping into the past.
func TestNotifyInOverflowClamps(t *testing.T) {
	k := New()
	e := k.NewEvent("e")
	k.Spawn("p", func(p *Proc) {
		p.Wait(Us)
		e.NotifyIn(TimeMax) // must not panic "NotifyAt in the past"
		p.Wait(Us)
	})
	k.RunUntil(10 * Us)
	if k.FinishReason() != FinishLimit {
		t.Fatalf("finish = %v, want limit", k.FinishReason())
	}
	k.Shutdown()
}

// TestWaitOverflowClamps checks Wait and WaitTimeout with near-TimeMax
// durations from a non-zero instant.
func TestWaitOverflowClamps(t *testing.T) {
	k := New()
	e := k.NewEvent("e")
	k.Spawn("p", func(p *Proc) {
		p.Wait(Us)
		p.WaitTimeout(TimeMax, e)
	})
	k.Spawn("q", func(p *Proc) {
		p.Wait(Us)
		p.Wait(TimeMax)
	})
	k.RunUntil(Ms)
	if k.FinishReason() != FinishLimit {
		t.Fatalf("finish = %v, want limit", k.FinishReason())
	}
	k.Shutdown()
}

func TestFinishReasons(t *testing.T) {
	// Quiescent: everything terminates.
	k := New()
	k.Spawn("p", func(p *Proc) { p.Wait(Us) })
	k.RunUntil(TimeMax)
	if k.FinishReason() != FinishQuiescent {
		t.Fatalf("finish = %v, want quiescent", k.FinishReason())
	}
	k.Shutdown()

	// Limit: pending activity past the horizon.
	k = New()
	k.Spawn("p", func(p *Proc) { p.Wait(Ms) })
	k.RunUntil(Us)
	if k.FinishReason() != FinishLimit {
		t.Fatalf("finish = %v, want limit", k.FinishReason())
	}
	k.Shutdown()

	// Stopped.
	k = New()
	k.Spawn("p", func(p *Proc) {
		p.Wait(Us)
		p.Kernel().Stop()
		p.Wait(Us)
	})
	k.RunUntil(TimeMax)
	if k.FinishReason() != FinishStopped {
		t.Fatalf("finish = %v, want stopped", k.FinishReason())
	}
	k.Shutdown()

	// Deadlock: a process waits on an event nobody notifies.
	k = New()
	e := k.NewEvent("never")
	k.Spawn("victim", func(p *Proc) { p.WaitEvent(e) })
	k.RunUntil(TimeMax)
	if k.FinishReason() != FinishDeadlock {
		t.Fatalf("finish = %v, want deadlock", k.FinishReason())
	}
	k.Shutdown()
}

func TestRunCheckedDeadlock(t *testing.T) {
	k := New()
	e := k.NewEvent("lock.acquire")
	k.Spawn("victim", func(p *Proc) { p.WaitEvent(e) })
	k.Spawn("idler", func(p *Proc) { p.WaitEvent(e) })
	k.Spawn("daemon", func(p *Proc) { p.WaitEvent(k.NewEvent("infra")) }).SetDaemon(true)
	rep, err := k.RunChecked(TimeMax)
	if rep.Reason != FinishDeadlock {
		t.Fatalf("reason = %v, want deadlock", rep.Reason)
	}
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	se, ok := err.(*SimError)
	if !ok {
		t.Fatalf("error type %T, want *SimError", err)
	}
	if len(se.Blocked) != 2 {
		t.Fatalf("blocked = %v, want the two victims (daemon excluded)", se.Blocked)
	}
	if len(rep.Blocked) != 2 {
		t.Fatalf("report blocked = %v, want the two victims (daemon excluded)", rep.Blocked)
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "victim", "idler", "lock.acquire"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
	if strings.Contains(msg, "daemon") {
		t.Fatalf("error %q should not list the daemon process", msg)
	}
	k.Shutdown()
}

// A run that reaches its limit with processes still waiting is not stuck:
// its report lists no blocked processes, and continuing it to starvation
// turns the same waiters into a deadlock that lists them all.
func TestRunCheckedLimitLeavesBlockedEmpty(t *testing.T) {
	k := New()
	e := k.NewEvent("never")
	k.Spawn("waiter", func(p *Proc) { p.WaitEvent(e) })
	k.NewStrand("parked", func(s *Strand) {}, true, e)
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(Us)
		}
	})
	rep, err := k.RunChecked(Us + Us/2)
	if err != nil || rep.Reason != FinishLimit {
		t.Fatalf("reason = %v, err = %v; want a limit finish", rep.Reason, err)
	}
	if rep.Blocked != nil {
		t.Fatalf("limit finish blocked = %v, want empty", rep.Blocked)
	}
	rep, err = k.RunChecked(TimeMax)
	if err == nil || rep.Reason != FinishDeadlock {
		t.Fatalf("reason = %v, err = %v; want a deadlock", rep.Reason, err)
	}
	var names []string
	for _, b := range rep.Blocked {
		names = append(names, b.Name)
	}
	if strings.Join(names, ",") != "waiter,parked" {
		t.Fatalf("deadlock blocked = %v, want waiter and parked", rep.Blocked)
	}
	k.Shutdown()
}

func TestRunCheckedRecoversPanic(t *testing.T) {
	k := New()
	k.SetDiagnostic(func() []string { return []string{"cpu0: running task bad"} })
	k.Spawn("bad", func(p *Proc) {
		p.Wait(Us)
		panic("boom")
	})
	rep, err := k.RunChecked(TimeMax)
	if err == nil {
		t.Fatal("expected an error from the panicking process")
	}
	se, ok := err.(*SimError)
	if !ok {
		t.Fatalf("error type %T, want *SimError", err)
	}
	if se.Proc != "bad" || se.At != Us || se.PanicValue != "boom" {
		t.Fatalf("unexpected SimError: %+v", se)
	}
	if rep.Reason != FinishPanic {
		t.Fatalf("reason = %v, want panic", rep.Reason)
	}
	if !strings.Contains(err.Error(), "cpu0: running task bad") {
		t.Fatalf("error %q lacks the diagnostic context", err)
	}
	k.Shutdown()
}

func TestRunCheckedQuiescent(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) { p.Wait(Us) })
	rep, err := k.RunChecked(TimeMax)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if rep.Reason != FinishQuiescent || rep.End != Us || len(rep.Blocked) != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	k.Shutdown()
}

// A strand is a continuation task body: until Finish it counts as blocked,
// exactly like a waiting process, so a run that starves with an unfinished
// strand is a deadlock naming it (in creation order among the processes),
// while a finished strand leaves the model quiescent.
func TestRunCheckedStrands(t *testing.T) {
	k := New()
	run := k.NewEvent("early.TaskRun")
	k.NewStrand("early", func(s *Strand) {}, true, run)
	k.Spawn("proc", func(p *Proc) { p.WaitEvent(k.NewEvent("never")) })
	k.NewStrand("late", func(s *Strand) {}, true)
	rep, err := k.RunChecked(TimeMax)
	if rep.Reason != FinishDeadlock || err == nil {
		t.Fatalf("reason = %v, err = %v; want a deadlock error", rep.Reason, err)
	}
	want := []string{
		"early waiting on early.TaskRun",
		"proc waiting on never",
		"late waiting on late.strandTimer",
	}
	if len(rep.Blocked) != len(want) {
		t.Fatalf("blocked = %v, want %v", rep.Blocked, want)
	}
	for i, b := range rep.Blocked {
		if b.String() != want[i] {
			t.Errorf("blocked[%d] = %q, want %q", i, b, want[i])
		}
	}
	k.Shutdown()

	k = New()
	k.NewStrand("done", func(s *Strand) { s.Finish() }, true)
	rep, err = k.RunChecked(TimeMax)
	if err != nil || rep.Reason != FinishQuiescent || len(rep.Blocked) != 0 {
		t.Fatalf("finished strand: reason = %v, blocked = %v, err = %v; want quiescent", rep.Reason, rep.Blocked, err)
	}
	k.Shutdown()
}

// TestKernelPhasePanicLeavesParkingProcessBlocked: a method that panics in
// the scheduling pass a process runs while it parks must be captured by the
// pass and re-raised by the Run caller, not unwind the parking process. The
// process stays parked (listed as blocked, its defers not yet run) until
// Shutdown unwinds it.
func TestKernelPhasePanicLeavesParkingProcessBlocked(t *testing.T) {
	k := New()
	boom := k.NewEvent("boom")
	never := k.NewEvent("never")
	k.NewMethod("bad", func() { panic("method boom") }, false, boom)
	deferRan := false
	k.Spawn("p", func(p *Proc) {
		defer func() { deferRan = true }()
		p.Wait(Us)
		boom.Notify()
		p.WaitEvent(never)
	})
	k.Spawn("q", func(p *Proc) { p.Wait(Ms) })
	_, err := k.RunChecked(TimeMax)
	const want = `sim: process "" panicked at 1us: method boom
  blocked: p waiting on never
  blocked: q waiting on nothing (timeout pending)`
	if err == nil || err.Error() != want {
		t.Fatalf("RunChecked error:\n%v\nwant:\n%s", err, want)
	}
	if deferRan {
		t.Fatal("p's defer ran before Shutdown: the method's panic unwound the parking process")
	}
	k.Shutdown()
	if !deferRan {
		t.Fatal("Shutdown did not unwind p")
	}
}
