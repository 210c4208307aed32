package sim

import (
	"fmt"
	"testing"
)

// BenchmarkTimedWait: one timed wait + wakeup per iteration — the kernel's
// fundamental operation.
func BenchmarkTimedWait(b *testing.B) {
	b.ReportAllocs()
	k := New()
	k.Spawn("t", func(p *Proc) {
		for {
			p.Wait(Us)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(Us)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkEventNotify: an immediate notification waking one waiter.
func BenchmarkEventNotify(b *testing.B) {
	b.ReportAllocs()
	k := New()
	e := k.NewEvent("e")
	k.Spawn("waiter", func(p *Proc) {
		for {
			p.WaitEvent(e)
		}
	})
	k.Spawn("notifier", func(p *Proc) {
		for {
			p.Wait(Us)
			e.Notify()
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(Us)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkDeltaCycle: one delta-notification round trip per iteration.
func BenchmarkDeltaCycle(b *testing.B) {
	b.ReportAllocs()
	k := New()
	e := k.NewEvent("e")
	k.Spawn("driver", func(p *Proc) {
		for {
			e.NotifyDelta()
			p.WaitDelta()
			p.Wait(Us)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(Us)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkWaitTimeoutNoFire: the RTOS Execute building block — a wait with
// an event timeout that expires (no preemption).
func BenchmarkWaitTimeoutNoFire(b *testing.B) {
	b.ReportAllocs()
	k := New()
	e := k.NewEvent("preempt")
	k.Spawn("t", func(p *Proc) {
		for {
			p.WaitTimeout(Us, e)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(Us)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkSignalUpdate: one signal write + update phase + change
// notification per iteration.
func BenchmarkSignalUpdate(b *testing.B) {
	b.ReportAllocs()
	k := New()
	s := NewSignal(k, "s", 0)
	v := 0
	k.Spawn("writer", func(p *Proc) {
		for {
			v++
			s.Write(v)
			p.Wait(Us)
		}
	})
	k.Spawn("observer", func(p *Proc) {
		for {
			p.WaitEvent(s.Changed())
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(Us)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkSpawnElaborate: building a 100-process kernel from scratch.
func BenchmarkSpawnElaborate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New()
		for j := 0; j < 100; j++ {
			k.Spawn(fmt.Sprintf("p%d", j), func(p *Proc) {
				p.Wait(Us)
			})
		}
		k.Run()
	}
}

// BenchmarkManyWaiters: broadcast notification to 100 waiting processes.
func BenchmarkManyWaiters(b *testing.B) {
	b.ReportAllocs()
	k := New()
	e := k.NewEvent("e")
	for j := 0; j < 100; j++ {
		k.Spawn(fmt.Sprintf("w%d", j), func(p *Proc) {
			for {
				p.WaitEvent(e)
			}
		})
	}
	k.Spawn("notifier", func(p *Proc) {
		for {
			p.Wait(Us)
			e.Notify()
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(Us)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkTimedQueueOps isolates the timed queue from the process
// machinery: a steady population of n timers where each operation replaces
// the popped minimum with a new deadline (the steady state of n periodic
// tasks). No goroutines, no events — this is the pure data-structure cost
// that the end-to-end BenchmarkManyTasks dilutes with activation overhead.
func BenchmarkTimedQueueOps(b *testing.B) {
	for _, size := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			var q timedHeap
			seq := uint64(0)
			// Pseudo-random but deterministic periods, ns scale.
			period := func(i uint64) Time { return Time(2000+13*(i%401)) * Ns }
			for i := 0; i < size; i++ {
				seq++
				q.push(q.alloc(period(seq), seq, nil, nil))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.pop()
				at := e.at
				q.release(e)
				seq++
				q.push(q.alloc(at+period(seq), seq, nil, nil))
			}
			b.StopTimer()
		})
	}
}

// BenchmarkTimedQueueCancel measures the cancellation path: schedule a
// far-future timer and kill it immediately, against a standing population of
// live timers. Kill unlinks and recycles the entry in O(1).
func BenchmarkTimedQueueCancel(b *testing.B) {
	b.ReportAllocs()
	var q timedHeap
	seq := uint64(0)
	for i := 0; i < 4096; i++ {
		seq++
		q.push(q.alloc(Time(2000+13*(seq%401))*Ns, seq, nil, nil))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		e := q.alloc(Ms, seq, nil, nil)
		q.push(e)
		q.kill(e)
	}
	b.StopTimer()
}
