package sim

import (
	"testing"

	"repro/internal/metrics"
)

// The kernel's steady-state hot paths are allocation-free: timed entries are
// pooled, the run/method queues are rings, and the delta/update/waiter lists
// are double-buffered. These tests pin that property so a regression shows
// up as a test failure, not as a slow creep in benchmark numbers. Every test
// runs with a metrics registry attached, so the kernel's observability
// counters are pinned to the same zero-allocation budget.

// newMeteredKernel builds a kernel with metrics collection enabled, the way
// rtos.NewSystem wires it.
func newMeteredKernel() *Kernel {
	k := New()
	k.SetMetrics(metrics.NewRegistry())
	return k
}

func TestAllocsPerTimedWait(t *testing.T) {
	k := newMeteredKernel()
	k.Spawn("t", func(p *Proc) {
		for {
			p.Wait(Us)
		}
	})
	k.RunFor(100 * Us) // reach steady state (buffers at final size)
	defer k.Shutdown()
	before := k.Activations()
	if avg := testing.AllocsPerRun(100, func() { k.RunFor(Us) }); avg > 0 {
		t.Errorf("timed wait allocates %.2f objects per activation, want 0", avg)
	}
	if k.Activations() == before {
		t.Error("no activations during the measured window; the test pinned nothing")
	}
}

func TestAllocsPerEventNotify(t *testing.T) {
	k := newMeteredKernel()
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
	k.RunFor(100 * Us)
	defer k.Shutdown()
	if avg := testing.AllocsPerRun(100, func() { k.RunFor(Us) }); avg > 0 {
		t.Errorf("event notify cycle allocates %.2f objects, want 0", avg)
	}
}

func TestAllocsPerDeltaCycle(t *testing.T) {
	k := newMeteredKernel()
	e := k.NewEvent("e")
	k.Spawn("pinger", func(p *Proc) {
		for {
			e.NotifyDelta()
			p.WaitDelta()
			p.Wait(Us)
		}
	})
	k.Spawn("listener", func(p *Proc) {
		for {
			p.WaitEvent(e)
		}
	})
	k.RunFor(100 * Us)
	defer k.Shutdown()
	if avg := testing.AllocsPerRun(100, func() { k.RunFor(Us) }); avg > 0 {
		t.Errorf("delta cycle allocates %.2f objects, want 0", avg)
	}
}

func TestAllocsPerCancelledTimeout(t *testing.T) {
	// WaitTimeout whose event always fires first: the timed entry is
	// cancelled each round and must be recycled, not leaked.
	k := newMeteredKernel()
	e := k.NewEvent("e")
	k.Spawn("waiter", func(p *Proc) {
		for {
			p.WaitTimeout(Ms, e)
		}
	})
	k.Spawn("notifier", func(p *Proc) {
		for {
			p.Wait(Us)
			e.Notify()
		}
	})
	k.RunFor(100 * Us)
	defer k.Shutdown()
	if avg := testing.AllocsPerRun(100, func() { k.RunFor(Us) }); avg > 0 {
		t.Errorf("cancelled-timeout cycle allocates %.2f objects, want 0", avg)
	}
}

// TestAllocsPerWheelScheduleFireCancel extends the zero-allocation pin to the
// timed queue across both entry fates, fired and cancelled, with timers
// spread over several buckets: every entry is freelist-recycled.
func TestAllocsPerWheelScheduleFireCancel(t *testing.T) {
	k := newMeteredKernel()
	e := k.NewEvent("e")
	// Dense periodic timers at mixed horizons.
	for i := 0; i < 8; i++ {
		d := Time(1+i) * Us
		k.Spawn("tick", func(p *Proc) {
			for {
				p.Wait(d)
			}
		})
	}
	// Cancellation traffic: the timeout never expires, so its entry is
	// killed and recycled every round.
	k.Spawn("cancel", func(p *Proc) {
		for {
			p.WaitTimeout(Ms, e)
		}
	})
	k.Spawn("notify", func(p *Proc) {
		for {
			p.Wait(3 * Us)
			e.Notify()
		}
	})
	k.RunFor(200 * Us) // steady state: freelists and rings at final size
	defer k.Shutdown()
	if avg := testing.AllocsPerRun(100, func() { k.RunFor(10 * Us) }); avg > 0 {
		t.Errorf("timed schedule/fire/cancel allocates %.2f objects per run, want 0", avg)
	}
}
