package comm_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// fixture builds a one-processor system with zero RTOS overhead for focused
// relation tests.
func fixture() (*rtos.System, *rtos.Processor) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	return sys, cpu
}

func TestEventFugitiveLosesSignal(t *testing.T) {
	sys, cpu := fixture()
	ev := comm.NewEvent(sys.Rec, "ev", comm.Fugitive)
	woke := false
	cpu.NewTask("waiter", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		c.Delay(10 * sim.Us) // signal happens while not waiting
		ev.Wait(c)
		woke = true
	})
	cpu.NewTask("signaller", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
		c.Execute(5 * sim.Us)
		ev.Signal(c)
	})
	sys.Run()
	if woke {
		t.Fatal("fugitive event memorized a signal")
	}
	if ev.Signals() != 1 {
		t.Fatalf("signal count = %d", ev.Signals())
	}
}

func TestEventBooleanMemorizesOne(t *testing.T) {
	sys, cpu := fixture()
	ev := comm.NewEvent(sys.Rec, "ev", comm.Boolean)
	wakes := 0
	cpu.NewTask("waiter", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		c.Delay(10 * sim.Us)
		ev.Wait(c) // consumes the memorized occurrence, no block
		wakes++
		ev.Wait(c) // blocks forever (both signals collapsed into one flag)
		wakes++
	})
	cpu.NewTask("signaller", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
		ev.Signal(c)
		ev.Signal(c) // second signal is absorbed
	})
	sys.Run()
	if wakes != 1 {
		t.Fatalf("wakes = %d, want 1", wakes)
	}
	if ev.Pending() != 0 {
		t.Fatalf("pending = %d", ev.Pending())
	}
}

func TestEventCounterMemorizesAll(t *testing.T) {
	sys, cpu := fixture()
	ev := comm.NewEvent(sys.Rec, "ev", comm.Counter)
	wakes := 0
	cpu.NewTask("waiter", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		c.Delay(10 * sim.Us)
		for i := 0; i < 3; i++ {
			ev.Wait(c)
			wakes++
		}
	})
	cpu.NewTask("signaller", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
		ev.Signal(c)
		ev.Signal(c)
		ev.Signal(c)
	})
	sys.Run()
	if wakes != 3 {
		t.Fatalf("wakes = %d, want 3", wakes)
	}
}

func TestEventFugitiveBroadcast(t *testing.T) {
	sys, cpu := fixture()
	ev := comm.NewEvent(sys.Rec, "ev", comm.Fugitive)
	woke := 0
	for i := 0; i < 4; i++ {
		cpu.NewTask(fmt.Sprintf("w%d", i), rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
			ev.Wait(c)
			woke++
		})
	}
	sys.NewHWTask("hw", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		c.Wait(10 * sim.Us)
		ev.Signal(c)
	})
	sys.Run()
	if woke != 4 {
		t.Fatalf("woke = %d, want 4 (broadcast)", woke)
	}
}

func TestEventCounterWakesOnePerSignal(t *testing.T) {
	sys, cpu := fixture()
	ev := comm.NewEvent(sys.Rec, "ev", comm.Counter)
	woke := 0
	for i := 0; i < 4; i++ {
		cpu.NewTask(fmt.Sprintf("w%d", i), rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
			ev.Wait(c)
			woke++
		})
	}
	sys.NewHWTask("hw", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		c.Wait(10 * sim.Us)
		ev.Signal(c)
		c.Wait(10 * sim.Us)
		ev.Signal(c)
	})
	sys.Run()
	if woke != 2 {
		t.Fatalf("woke = %d, want 2 (one per signal)", woke)
	}
}

func TestEventSignalFromKernelContext(t *testing.T) {
	// A raw kernel process (below the task level) can signal relations via
	// SignalFrom: the waiter wakes through its RTOS as usual.
	sys, cpu := fixture()
	ev := comm.NewEvent(sys.Rec, "ev", comm.Boolean)
	var woke sim.Time
	cpu.NewTask("waiter", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		ev.Wait(c)
		woke = c.Now()
	})
	sys.K.Spawn("rawhw", func(p *sim.Proc) {
		p.Wait(30 * sim.Us)
		ev.SignalFrom("rawhw")
	})
	sys.Run()
	if woke != 30*sim.Us {
		t.Fatalf("woke at %v, want 30us", woke)
	}
	// The access trace attributes the signal to the named source.
	found := false
	for a := range sys.Rec.Accesses() {
		if a.Actor == "rawhw" && a.Object == "ev" {
			found = true
		}
	}
	if !found {
		t.Fatal("SignalFrom source missing from trace")
	}
}

func TestQueueProducerConsumer(t *testing.T) {
	sys, cpu := fixture()
	q := comm.NewQueue[int](sys.Rec, "q", 2)
	var received []int
	cpu.NewTask("producer", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
		for i := 0; i < 6; i++ {
			q.Put(c, i) // blocks when full: consumer is slower
			c.Execute(sim.Us)
		}
	})
	cpu.NewTask("consumer", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		for i := 0; i < 6; i++ {
			received = append(received, q.Get(c))
			c.Execute(10 * sim.Us)
		}
	})
	sys.Run()
	if fmt.Sprint(received) != "[0 1 2 3 4 5]" {
		t.Fatalf("received %v", received)
	}
	if q.Sends() != 6 || q.Receives() != 6 || q.Len() != 0 {
		t.Fatalf("counters: sends=%d recv=%d len=%d", q.Sends(), q.Receives(), q.Len())
	}
}

func TestQueueBlocksWhenFull(t *testing.T) {
	sys, cpu := fixture()
	q := comm.NewQueue[int](sys.Rec, "q", 1)
	var putDone, getAt sim.Time
	cpu.NewTask("producer", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
		q.Put(c, 1)
		q.Put(c, 2) // blocks until the consumer drains one at 50us
		putDone = c.Now()
	})
	cpu.NewTask("consumer", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		c.Execute(50 * sim.Us)
		_ = q.Get(c)
		getAt = c.Now()
	})
	sys.Run()
	if putDone != 50*sim.Us || getAt != 50*sim.Us {
		t.Fatalf("putDone=%v getAt=%v, want both 50us", putDone, getAt)
	}
}

func TestQueueTryOps(t *testing.T) {
	sys, cpu := fixture()
	q := comm.NewQueue[string](sys.Rec, "q", 1)
	var log []string
	cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		if q.TryPut(c, "a") {
			log = append(log, "put")
		}
		if !q.TryPut(c, "b") {
			log = append(log, "full")
		}
		log = append(log, q.Get(c))
	})
	sys.Run()
	if strings.Join(log, ",") != "put,full,a" {
		t.Fatalf("log = %v", log)
	}
}

func TestQueueBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	comm.NewQueue[int](nil, "q", 0)
}

func TestMutexExclusionAndPriorityWake(t *testing.T) {
	sys, cpu := fixture()
	m := comm.NewMutex(sys.Rec, "m")
	var order []string
	hold := func(name string, prio int, start sim.Time) {
		cpu.NewTask(name, rtos.TaskConfig{Priority: prio, StartAt: start}, func(c *rtos.TaskCtx) {
			m.Lock(c)
			order = append(order, name)
			c.Execute(20 * sim.Us)
			m.Unlock(c)
		})
	}
	hold("first", 1, 0)       // grabs the lock at 0
	hold("low", 2, 5*sim.Us)  // preempts, blocks on the lock
	hold("high", 3, 6*sim.Us) // preempts, blocks on the lock
	sys.Run()
	// When "first" unlocks, the higher-priority waiter must win even though
	// "low" blocked earlier.
	if strings.Join(order, ",") != "first,high,low" {
		t.Fatalf("lock order = %v", order)
	}
}

func TestMutexRecursive(t *testing.T) {
	sys, cpu := fixture()
	m := comm.NewMutex(sys.Rec, "m")
	ok := false
	cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		m.Lock(c)
		m.Lock(c) // recursive
		m.Unlock(c)
		if m.Owner() == nil {
			t.Error("lock released too early")
		}
		m.Unlock(c)
		if m.Owner() != nil {
			t.Error("lock not released")
		}
		ok = true
	})
	sys.Run()
	if !ok {
		t.Fatal("task did not finish")
	}
}

func TestMutexWrongOwnerUnlockPanics(t *testing.T) {
	sys, cpu := fixture()
	m := comm.NewMutex(sys.Rec, "m")
	cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		m.Unlock(c)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sys.Run()
}

func TestSharedVariableAccess(t *testing.T) {
	sys, cpu := fixture()
	sv := comm.NewShared(sys.Rec, "sv", 100)
	var got int
	cpu.NewTask("writer", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
		sv.Lock(c)
		c.Execute(10 * sim.Us) // a timed write access
		sv.Set(c, 42)
		sv.Unlock(c)
	})
	cpu.NewTask("reader", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		c.Delay(20 * sim.Us)
		got = sv.Read(c)
	})
	sys.Run()
	if got != 42 {
		t.Fatalf("read %d, want 42", got)
	}
	if sv.Reads() != 1 || sv.Writes() != 1 {
		t.Fatalf("counters: reads=%d writes=%d", sv.Reads(), sv.Writes())
	}
}

func TestSharedAccessWithoutLockPanics(t *testing.T) {
	sys, cpu := fixture()
	sv := comm.NewShared(sys.Rec, "sv", 0)
	cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		sv.Get(c)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sys.Run()
}

// TestPriorityInversion reproduces the paper's Figure 7 situation: a
// low-priority task holding a shared variable is preempted; a
// medium-priority CPU hog then starves it, so the high-priority task blocked
// on the variable waits for the hog — unbounded priority inversion.
// Priority inheritance (the extension) bounds the inversion: the holder is
// boosted above the hog and releases quickly.
func TestPriorityInversion(t *testing.T) {
	run := func(inherit bool) (hWait sim.Time) {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu0", rtos.Config{})
		var sv *comm.Shared[int]
		if inherit {
			sv = comm.NewInheritShared(sys.Rec, "sv", 0)
		} else {
			sv = comm.NewShared(sys.Rec, "sv", 0)
		}
		cpu.NewTask("L", rtos.TaskConfig{Priority: 10}, func(c *rtos.TaskCtx) {
			sv.Lock(c)
			c.Execute(100 * sim.Us) // long access, preempted by H then M
			sv.Unlock(c)
		})
		var lockAsk, lockGot sim.Time
		cpu.NewTask("H", rtos.TaskConfig{Priority: 30, StartAt: 10 * sim.Us}, func(c *rtos.TaskCtx) {
			lockAsk = c.Now()
			sv.Lock(c)
			lockGot = c.Now()
			c.Execute(10 * sim.Us)
			sv.Unlock(c)
		})
		cpu.NewTask("M", rtos.TaskConfig{Priority: 20, StartAt: 20 * sim.Us}, func(c *rtos.TaskCtx) {
			c.Execute(500 * sim.Us) // the hog
		})
		sys.Run()
		return lockGot - lockAsk
	}
	plain := run(false)
	pip := run(true)
	// Without inheritance H waits for M's 500us hog plus L's remainder;
	// with inheritance only for L's remainder.
	if plain != 590*sim.Us {
		t.Errorf("plain inversion wait = %v, want 590us", plain)
	}
	if pip != 90*sim.Us {
		t.Errorf("inherited wait = %v, want 90us", pip)
	}
	if pip >= plain {
		t.Errorf("priority inheritance did not bound the inversion: %v >= %v", pip, plain)
	}
}

// TestPreemptionDisableAvoidsInversion checks the paper's own remedy
// ("this priority inversion problem can be avoided by disabling preemption
// during access to shared data"): with the critical section non-preemptible,
// the high-priority task never observes the lock held.
func TestPreemptionDisableAvoidsInversion(t *testing.T) {
	sys, cpu := fixture()
	sv := comm.NewShared(sys.Rec, "sv", 0)
	blocked := false
	cpu.NewTask("L", rtos.TaskConfig{Priority: 10}, func(c *rtos.TaskCtx) {
		c.DisablePreemption()
		sv.Lock(c)
		c.Execute(100 * sim.Us)
		sv.Unlock(c)
		c.EnablePreemption()
	})
	cpu.NewTask("H", rtos.TaskConfig{Priority: 30, StartAt: 10 * sim.Us}, func(c *rtos.TaskCtx) {
		blocked = sv.Mutex().Owner() != nil
		sv.Lock(c)
		c.Execute(10 * sim.Us)
		sv.Unlock(c)
	})
	sys.Run()
	if blocked {
		t.Fatal("H found the variable locked despite the non-preemptible critical section")
	}
}

func TestHWAndSWShareRelations(t *testing.T) {
	// Co-simulation: a HW task produces into a queue, a SW task consumes,
	// both block on each other's pace.
	sys, cpu := fixture()
	q := comm.NewQueue[int](sys.Rec, "dma", 2)
	var sum int
	cpu.NewTask("sw", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		for i := 0; i < 5; i++ {
			sum += q.Get(c)
			c.Execute(30 * sim.Us)
		}
	})
	sys.NewHWTask("hw", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		for i := 1; i <= 5; i++ {
			c.Wait(10 * sim.Us)
			q.Put(c, i) // HW blocks when the SW side lags
		}
	})
	sys.Run()
	if sum != 15 {
		t.Fatalf("sum = %d, want 15", sum)
	}
}
