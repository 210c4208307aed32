package bus_test

import (
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/rtos"
	"repro/internal/sim"
)

func busFixture(perByte, arb sim.Time) (*rtos.System, *bus.Bus) {
	sys := rtos.NewSystem()
	b := bus.New(sys.Rec, "bus0", bus.Config{PerByte: perByte, Arbitration: arb})
	return sys, b
}

func TestTransferTiming(t *testing.T) {
	sys, b := busFixture(sim.Us, 10*sim.Us)
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	var end sim.Time
	cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		b.Transfer(c, 100) // 10 + 100*1 = 110us
		end = c.Now()
	})
	sys.Run()
	if end != 110*sim.Us {
		t.Fatalf("transfer ended at %v, want 110us", end)
	}
	if b.Transfers() != 1 || b.BusyTime() != 110*sim.Us {
		t.Fatalf("stats: %d transfers, busy %v", b.Transfers(), b.BusyTime())
	}
}

func TestTransfersSerialize(t *testing.T) {
	// Two hardware masters contend: the second transfer starts only after
	// the first releases the bus.
	sys, b := busFixture(sim.Us, 0)
	var aEnd, bEnd sim.Time
	sys.NewHWTask("dma-a", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		b.Transfer(c, 100)
		aEnd = c.Now()
	})
	sys.NewHWTask("dma-b", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		c.Wait(10 * sim.Us) // arrives mid-transfer
		b.Transfer(c, 50)
		bEnd = c.Now()
	})
	sys.Run()
	if aEnd != 100*sim.Us {
		t.Fatalf("a ended at %v, want 100us", aEnd)
	}
	if bEnd != 150*sim.Us {
		t.Fatalf("b ended at %v, want 150us (serialized after a)", bEnd)
	}
}

func TestArbitrationByPriority(t *testing.T) {
	// While the bus is held, two contenders queue; the higher-priority one
	// wins the next slot.
	sys, b := busFixture(sim.Us, 0)
	var order []string
	transfer := func(name string, prio int, at sim.Time) {
		sys.NewHWTask(name, rtos.HWConfig{Priority: prio, StartAt: at}, func(c *rtos.HWCtx) {
			b.Transfer(c, 10)
			order = append(order, name)
		})
	}
	transfer("holder", 0, 0)
	transfer("low", 1, 2*sim.Us)
	transfer("high", 9, 3*sim.Us)
	sys.Run()
	if len(order) != 3 || order[0] != "holder" || order[1] != "high" || order[2] != "low" {
		t.Fatalf("order = %v", order)
	}
}

func TestTaskFreesCPUDuringTransfer(t *testing.T) {
	// A DMA-style transfer must not consume the processor: a lower-priority
	// task runs while the transferring task sleeps on the bus.
	sys, b := busFixture(10*sim.Us, 0)
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	var loRan sim.Time
	cpu.NewTask("xfer", rtos.TaskConfig{Priority: 9}, func(c *rtos.TaskCtx) {
		c.Execute(10 * sim.Us)
		b.Transfer(c, 10) // 100us on the bus, CPU free
		c.Execute(10 * sim.Us)
	})
	cpu.NewTask("lo", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
		c.Execute(50 * sim.Us)
		loRan = c.Now()
	})
	sys.Run()
	// lo runs during the transfer window [10,110]: finishes at 60us.
	if loRan != 60*sim.Us {
		t.Fatalf("lo finished at %v, want 60us (CPU free during DMA)", loRan)
	}
}

func TestChannelEndToEnd(t *testing.T) {
	sys, b := busFixture(sim.Us, 5*sim.Us)
	cpu0 := sys.NewProcessor("cpu0", rtos.Config{})
	cpu1 := sys.NewProcessor("cpu1", rtos.Config{})
	ch := bus.NewChannel(b, "link", 2, func(v int) int { return 64 })
	var got []int
	var recvAt []sim.Time
	cpu0.NewTask("sender", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		for i := 1; i <= 3; i++ {
			c.Execute(10 * sim.Us)
			ch.Send(c, i)
		}
	})
	cpu1.NewTask("receiver", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		for i := 0; i < 3; i++ {
			got = append(got, ch.Recv(c))
			recvAt = append(recvAt, c.Now())
		}
	})
	sys.Run()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	// First message: 10us compute + 69us transfer = arrives at 79us.
	if recvAt[0] != 79*sim.Us {
		t.Fatalf("first arrival at %v, want 79us", recvAt[0])
	}
	if b.Transfers() != 3 || b.BusyTime() != 3*69*sim.Us {
		t.Fatalf("bus stats: %d transfers, busy %v", b.Transfers(), b.BusyTime())
	}
	if ch.Queue().Cap() != 2 || ch.Name() != "link" {
		t.Fatal("channel accessors wrong")
	}
}

func TestBusUtilizationStats(t *testing.T) {
	sys, b := busFixture(sim.Us, 0)
	sys.NewHWTask("dma", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		b.Transfer(c, 250) // 250us of a 1ms window
		c.Wait(750 * sim.Us)
	})
	sys.RunUntil(sim.Ms)
	st := sys.Stats(sim.Ms)
	sys.Shutdown()
	o, ok := st.ObjectByName("bus0")
	if !ok {
		t.Fatal("bus missing from stats")
	}
	if got := o.UtilizationRatio(); got != 0.25 {
		t.Fatalf("bus utilization = %v, want 0.25", got)
	}
}

func TestBusAccessors(t *testing.T) {
	sys, b := busFixture(sim.Ns, 0)
	if b.Name() != "bus0" {
		t.Fatal("bus name wrong")
	}
	ch := bus.NewChannel[int](b, "ch", 3, nil) // nil size: 1 byte per message
	if !strings.Contains(ch.String(), "ch") || !strings.Contains(ch.String(), "bus0") {
		t.Fatalf("channel String = %q", ch.String())
	}
	var arrived sim.Time
	sys.NewHWTask("a", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		ch.Send(c, 5) // 1 byte: 1ns on the bus
	})
	sys.NewHWTask("b", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		_ = ch.Recv(c)
		arrived = c.Now()
	})
	sys.Run()
	if arrived != sim.Ns {
		t.Fatalf("default-size message arrived at %v, want 1ns", arrived)
	}
}

func TestBusValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative per-byte", func() { bus.New(nil, "b", bus.Config{PerByte: -1}) })
	mustPanic("negative arbitration", func() { bus.New(nil, "b", bus.Config{Arbitration: -1}) })
	sys, b := busFixture(sim.Us, 0)
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
		b.Transfer(c, -1)
	})
	defer func() {
		if recover() == nil {
			t.Error("negative size: expected panic")
		}
	}()
	sys.Run()
}
