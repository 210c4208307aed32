package comm_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// TestPropertyQueueFIFO: messages always come out of a queue in insertion
// order, for random capacities and random producer/consumer paces.
func TestPropertyQueueFIFO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(5)
		n := 5 + rng.Intn(20)
		prodPace := sim.Time(rng.Intn(30)) * sim.Us
		consPace := sim.Time(rng.Intn(30)) * sim.Us

		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{})
		q := comm.NewQueue[int](sys.Rec, "q", capacity)
		var got []int
		cpu.NewTask("prod", rtos.TaskConfig{Priority: rng.Intn(3)}, func(c *rtos.TaskCtx) {
			for i := 0; i < n; i++ {
				if prodPace > 0 {
					c.Execute(prodPace)
				}
				q.Put(c, i)
			}
		})
		cpu.NewTask("cons", rtos.TaskConfig{Priority: rng.Intn(3)}, func(c *rtos.TaskCtx) {
			for i := 0; i < n; i++ {
				got = append(got, q.Get(c))
				if consPace > 0 {
					c.Execute(consPace)
				}
			}
		})
		sys.Run()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyQueueNeverOverflows: the queue depth never exceeds its
// capacity, whatever the producers do.
func TestPropertyQueueNeverOverflows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(4)
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{})
		q := comm.NewQueue[int](sys.Rec, "q", capacity)
		nProd := 1 + rng.Intn(3)
		for i := 0; i < nProd; i++ {
			cpu.NewTask(fmt.Sprintf("p%d", i), rtos.TaskConfig{Priority: rng.Intn(5)}, func(c *rtos.TaskCtx) {
				for j := 0; j < 10; j++ {
					q.Put(c, j)
				}
			})
		}
		cpu.NewTask("cons", rtos.TaskConfig{Priority: rng.Intn(5)}, func(c *rtos.TaskCtx) {
			for j := 0; j < 10*nProd; j++ {
				q.Get(c)
				c.Execute(sim.Us)
			}
		})
		sys.Run()
		for d := range sys.Rec.Depths() {
			if d.Object == "q" && (d.Depth < 0 || d.Depth > capacity) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCounterEventConservation: wakeups + memorized count equals
// signals for a counter event (nothing is lost or invented).
func TestPropertyCounterEventConservation(t *testing.T) {
	f := func(nSignals, nWaiters uint8) bool {
		s := int(nSignals % 20)
		w := int(nWaiters%10) + 1
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{})
		ev := comm.NewEvent(sys.Rec, "ev", comm.Counter)
		wakes := 0
		for i := 0; i < w; i++ {
			cpu.NewTask(fmt.Sprintf("w%d", i), rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
				for {
					ev.Wait(c)
					wakes++
				}
			})
		}
		sys.NewHWTask("sig", rtos.HWConfig{}, func(c *rtos.HWCtx) {
			for i := 0; i < s; i++ {
				c.Wait(sim.Us)
				ev.Signal(c)
			}
		})
		sys.RunUntil(sim.Ms)
		sys.Shutdown()
		return wakes+ev.Pending() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMutexMutualExclusion: whatever the contention, at most one
// actor is ever inside the critical section.
func TestPropertyMutexMutualExclusion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{})
		m := comm.NewMutex(sys.Rec, "m")
		inside := 0
		maxInside := 0
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			d := sim.Time(1+rng.Intn(40)) * sim.Us
			cpu.NewTask(fmt.Sprintf("t%d", i), rtos.TaskConfig{
				Priority: rng.Intn(5),
				StartAt:  sim.Time(rng.Intn(50)) * sim.Us,
			}, func(c *rtos.TaskCtx) {
				for j := 0; j < 3; j++ {
					m.Lock(c)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					c.Execute(d)
					inside--
					m.Unlock(c)
					c.Delay(d)
				}
			})
		}
		sys.RunUntil(10 * sim.Ms)
		sys.Shutdown()
		return maxInside == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCeilingMutexBoundsInversion(t *testing.T) {
	// Immediate priority ceiling: the low-priority holder runs at the
	// ceiling for the whole critical section, so the middle hog cannot
	// intervene at all.
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	m := comm.NewCeilingMutex(sys.Rec, "m", 30)
	var ask, got sim.Time
	cpu.NewTask("L", rtos.TaskConfig{Priority: 10}, func(c *rtos.TaskCtx) {
		m.Lock(c)
		c.Execute(100 * sim.Us)
		m.Unlock(c)
	})
	cpu.NewTask("H", rtos.TaskConfig{Priority: 30, StartAt: 10 * sim.Us}, func(c *rtos.TaskCtx) {
		ask = c.Now()
		m.Lock(c)
		got = c.Now()
		m.Unlock(c)
	})
	cpu.NewTask("M", rtos.TaskConfig{Priority: 20, StartAt: 20 * sim.Us}, func(c *rtos.TaskCtx) {
		c.Execute(500 * sim.Us)
	})
	sys.Run()
	// L holds the ceiling priority 30 from t=0; H (ready at 10) cannot
	// preempt (tie, L keeps running), M certainly cannot. L releases at
	// 100us and H runs then, finding the lock free: under the immediate
	// ceiling protocol the high-priority task never blocks on the lock at
	// all — the whole delay is the holder's critical section, bounded and
	// independent of M's 500us of work.
	if got != ask {
		t.Fatalf("H blocked %v on the lock, want 0 under the ceiling protocol", got-ask)
	}
	if ask != 100*sim.Us {
		t.Fatalf("H ran at %v, want 100us (end of L's critical section)", ask)
	}
}

func TestCeilingMutexAvoidsNestedDeadlock(t *testing.T) {
	// The classical two-lock deadlock (A takes m1 then m2, B takes m2 then
	// m1) cannot happen under the immediate ceiling protocol: whoever locks
	// first runs at the ceiling and finishes both acquisitions.
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	m1 := comm.NewCeilingMutex(sys.Rec, "m1", 100)
	m2 := comm.NewCeilingMutex(sys.Rec, "m2", 100)
	done := 0
	cpu.NewTask("A", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		m1.Lock(c)
		c.Execute(10 * sim.Us)
		m2.Lock(c)
		c.Execute(10 * sim.Us)
		m2.Unlock(c)
		m1.Unlock(c)
		done++
	})
	cpu.NewTask("B", rtos.TaskConfig{Priority: 2, StartAt: 5 * sim.Us}, func(c *rtos.TaskCtx) {
		m2.Lock(c)
		c.Execute(10 * sim.Us)
		m1.Lock(c)
		c.Execute(10 * sim.Us)
		m1.Unlock(c)
		m2.Unlock(c)
		done++
	})
	sys.Run()
	if done != 2 {
		t.Fatalf("done = %d, want 2 (deadlock under ceiling protocol?) blocked: %v",
			done, sys.BlockedTasks())
	}
}
