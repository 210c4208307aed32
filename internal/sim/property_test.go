package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropertyTimeMonotonic: a process observes non-decreasing time across
// arbitrary sequences of waits (quick-generated durations).
func TestPropertyTimeMonotonic(t *testing.T) {
	f := func(waits []uint16) bool {
		if len(waits) > 64 {
			waits = waits[:64]
		}
		k := New()
		ok := true
		k.Spawn("p", func(p *Proc) {
			last := p.Now()
			for _, w := range waits {
				p.Wait(Time(w) * Ns)
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
			}
		})
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWaitSumsExactly: the end time of sequential waits equals the
// exact sum of the durations — no quantization anywhere in the kernel.
func TestPropertyWaitSumsExactly(t *testing.T) {
	f := func(waits []uint32) bool {
		if len(waits) > 32 {
			waits = waits[:32]
		}
		k := New()
		var total Time
		for _, w := range waits {
			total += Time(w)
		}
		var end Time = -1
		k.Spawn("p", func(p *Proc) {
			for _, w := range waits {
				p.Wait(Time(w))
			}
			end = p.Now()
		})
		k.Run()
		return end == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTimedNotifyOrder: N processes each waiting a distinct random
// duration wake in sorted order regardless of spawn order.
func TestPropertyTimedNotifyOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		durations := rng.Perm(n) // distinct 0..n-1
		k := New()
		var wakeOrder []int
		for i := 0; i < n; i++ {
			i := i
			d := Time(durations[i]+1) * Us
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Wait(d)
				wakeOrder = append(wakeOrder, durations[i])
			})
		}
		k.Run()
		for i := 1; i < len(wakeOrder); i++ {
			if wakeOrder[i] < wakeOrder[i-1] {
				return false
			}
		}
		return len(wakeOrder) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEventSingleDelivery: with one waiter and k notifications at
// distinct times, the waiter wakes exactly min(cycles, k) times.
func TestPropertyEventSingleDelivery(t *testing.T) {
	f := func(notifies uint8) bool {
		n := int(notifies%10) + 1
		k := New()
		e := k.NewEvent("e")
		wakes := 0
		k.Spawn("waiter", func(p *Proc) {
			for {
				p.WaitEvent(e)
				wakes++
			}
		})
		k.Spawn("notifier", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Wait(Us)
				e.Notify()
			}
		})
		k.Run()
		return wakes == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyHeapOrdered: the timed heap pops entries in (time, seq) order
// for arbitrary push sequences.
func TestPropertyHeapOrdered(t *testing.T) {
	f := func(times []uint8) bool {
		var h timedHeap
		for i, at := range times {
			h.push(&timedEntry{at: Time(at), seq: uint64(i)})
		}
		var last *timedEntry
		for h.peek() != nil {
			e := h.peek()
			h.pop()
			if last != nil && (e.at < last.at || (e.at == last.at && e.seq < last.seq)) {
				return false
			}
			last = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
