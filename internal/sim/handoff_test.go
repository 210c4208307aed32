package sim

import (
	"testing"
)

// TestHandoffStress is the race-detector workout for the process
// coroutines: hundreds of processes ping-ponging through immediate, delta
// and timed wakeups, each parking process running the next scheduling pass
// itself and yielding to the Run caller when the pass picks another, with
// repeated bounded runs (the Run caller leaving and re-entering the
// scheduler) and a mid-life shutdown. Run with -race in CI; the assertions
// here only pin liveness and the single-runner invariant's observable
// effects (exact activation accounting is covered elsewhere).
func TestHandoffStress(t *testing.T) {
	const (
		procs  = 200
		rounds = 50
	)
	k := New()
	ev := k.NewEvent("ball")
	var running int32 // guarded by the single-runner invariant, not atomics
	var maxRunning int32
	body := func(p *Proc) {
		for r := 0; r < rounds; r++ {
			running++
			if running > maxRunning {
				maxRunning = running
			}
			running--
			switch r % 3 {
			case 0:
				p.Wait(Time(1 + r%7))
			case 1:
				ev.NotifyDelta()
				p.WaitEvent(ev)
			default:
				p.WaitTimeout(Time(1+r%5), ev)
			}
		}
	}
	for i := 0; i < procs; i++ {
		k.Spawn("p", body)
	}
	// Bounded runs force the Run caller in and out of the scheduler between
	// horizons, so it resumes coroutines parked across a horizon as well as
	// ones parked within a run.
	for i := 0; i < 20; i++ {
		k.RunFor(5)
	}
	k.Run()
	if maxRunning != 1 {
		t.Fatalf("single-runner invariant violated: %d bodies ran concurrently", maxRunning)
	}
	if got := k.FinishReason(); got != FinishQuiescent {
		t.Fatalf("finish reason = %v, want quiescent", got)
	}
	k.Shutdown()
}

// TestHandoffShutdownMidFlight kills a large population of parked and
// runnable processes: Shutdown stops each coroutine, whose parked body
// unwinds promptly through its kill handler without leaking goroutines
// (leak detection itself is in TestNoGoroutineLeaks; this adds scale and a
// shutdown taken at a horizon where many timers are still in flight).
func TestHandoffShutdownMidFlight(t *testing.T) {
	k := New()
	for i := 0; i < 300; i++ {
		k.Spawn("w", func(p *Proc) {
			for {
				p.Wait(Time(1 + i%13))
			}
		})
	}
	k.RunFor(100)
	k.Shutdown()
	if got := k.FinishReason(); got != FinishLimit {
		t.Fatalf("finish reason = %v, want limit", got)
	}
}
