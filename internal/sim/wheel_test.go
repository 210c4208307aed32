package sim

import (
	"math/rand"
	"testing"
)

// wheelRef drives a timedWheel and a timedHeap through the same operation
// sequence and asserts they stay observationally identical: same length, same
// peek, same pop order. The wheel's correctness argument (exact (at, seq)
// order despite slots, cascades and the overflow heap) is subtle enough to
// deserve a brute-force check against the simple structure.
type wheelRef struct {
	t     *testing.T
	wheel *timedWheel
	heap  timedHeap
	// live pairs the two structures' entries for the same logical timer.
	live []wheelRefEntry
	seq  uint64
}

type wheelRefEntry struct {
	w, h *timedEntry
}

func (r *wheelRef) push(at Time) {
	r.seq++
	we := r.wheel.alloc(at, r.seq, nil, nil)
	r.wheel.push(we)
	he := r.heap.alloc(at, r.seq, nil, nil)
	r.heap.push(he)
	r.live = append(r.live, wheelRefEntry{we, he})
}

// pop compares and pops the head of both structures, returning the popped
// timestamp (the new lower bound for pushes, mirroring the kernel's rule
// that pushes are never in the past) and false when both are empty.
func (r *wheelRef) pop() (Time, bool) {
	wp, hp := r.wheel.peek(), r.heap.peek()
	if (wp == nil) != (hp == nil) {
		r.t.Fatalf("peek disagrees: wheel %v, heap %v", wp, hp)
	}
	if wp == nil {
		return 0, false
	}
	if wp.at != hp.at || wp.seq != hp.seq {
		r.t.Fatalf("pop order diverged: wheel (%v, seq %d), heap (%v, seq %d)",
			wp.at, wp.seq, hp.at, hp.seq)
	}
	at := wp.at
	r.wheel.pop()
	r.heap.pop()
	r.forget(wp.seq)
	r.wheel.release(wp)
	r.heap.release(hp)
	return at, true
}

func (r *wheelRef) kill(i int) {
	if len(r.live) == 0 {
		return
	}
	e := r.live[i%len(r.live)]
	r.wheel.kill(e.w)
	r.heap.kill(e.h)
	r.forget(e.w.seq)
}

func (r *wheelRef) forget(seq uint64) {
	for i, e := range r.live {
		if e.w.seq == seq {
			r.live = append(r.live[:i], r.live[i+1:]...)
			return
		}
	}
}

// check compares live-entry counts. The raw len() values may legitimately
// differ after cancellations — the heap dead-marks killed entries and prunes
// them lazily, while the wheel unlinks its own entries immediately — so the
// invariant is on entries that are still alive.
func (r *wheelRef) check() {
	wl := r.wheel.count + len(r.wheel.overflow.entries) - r.wheel.overflow.dead
	hl := len(r.heap.entries) - r.heap.dead
	if wl != len(r.live) || hl != len(r.live) {
		r.t.Fatalf("live counts disagree: wheel %d, heap %d, want %d", wl, hl, len(r.live))
	}
}

// TestWheelMatchesHeapRandomized is the pop-order equivalence property at the
// data-structure level: across random interleavings of pushes (including
// duplicate timestamps and beyond-span outliers), pops and cancellations, the
// wheel must produce exactly the heap's (at, seq) order.
func TestWheelMatchesHeapRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := &wheelRef{t: t, wheel: newTimedWheel()}
		cur := Time(0)
		for op := 0; op < 2000; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				// Near-future pushes with heavy timestamp collisions (dense
				// level-0 slots and seq-order ties).
				r.push(cur + Time(rng.Int63n(50)))
			case 3, 4:
				// Wider horizons exercising levels 1-3...
				at := cur + Time(rng.Int63n(int64(Us)*1000))
				if rng.Intn(20) == 0 {
					// ...with occasional outliers beyond the wheel's span
					// that land in the overflow heap.
					at = cur + Time(rng.Int63n(int64(Sec)))*300
				}
				r.push(at)
			case 5, 6, 7:
				if at, ok := r.pop(); ok {
					cur = at
				}
			default:
				r.kill(rng.Intn(1 + len(r.live)))
			}
			r.check()
		}
		// Drain completely; the tail must stay ordered too.
		for {
			if _, ok := r.pop(); !ok {
				break
			}
		}
		if len(r.live) != 0 {
			t.Fatalf("seed %d: %d live entries left after drain", seed, len(r.live))
		}
	}
}

// TestWheelSeqFIFOWithinTimestamp pins the determinism contract: entries
// scheduled for the same instant pop in schedule order, including when the
// shared timestamp sits in a high-level slot that cascades on pop.
func TestWheelSeqFIFOWithinTimestamp(t *testing.T) {
	for _, at := range []Time{0, 100, 255, 256, 65536, 1 << 40} {
		w := newTimedWheel()
		const n = 32
		for i := uint64(1); i <= n; i++ {
			w.push(w.alloc(at, i, nil, nil))
		}
		for i := uint64(1); i <= n; i++ {
			e := w.peek()
			if e == nil || e.at != at || e.seq != i {
				t.Fatalf("at %v: pop %d returned %+v", at, i, e)
			}
			w.pop()
			w.release(e)
		}
	}
}

// TestWheelPushEarlierThanPendingHead covers the cursor rule that makes
// bounded runs safe: peek must not advance the cursor, so after peeking a
// far-future head the wheel still accepts and correctly orders entries
// earlier than that head (but later than the last pop).
func TestWheelPushEarlierThanPendingHead(t *testing.T) {
	w := newTimedWheel()
	far := w.alloc(Time(1<<30), 1, nil, nil)
	w.push(far)
	if got := w.peek(); got != far {
		t.Fatalf("peek = %+v, want far entry", got)
	}
	// An earlier entry scheduled after the peek (e.g. during the next
	// bounded run) must become the new head.
	near := w.alloc(Time(1000), 2, nil, nil)
	w.push(near)
	if got := w.peek(); got != near {
		t.Fatalf("peek after earlier push = %+v, want near entry", got)
	}
	if e := w.pop(); e != near {
		t.Fatalf("pop = %+v, want near entry", e)
	}
	if e := w.pop(); e != far {
		t.Fatalf("second pop = %+v, want far entry", e)
	}
}

// TestWheelOverflowSpan exercises the wheel/heap boundary: entries whose
// timestamp differs from the cursor in a digit the wheel does not cover park
// in the overflow heap, are popped in correct order when they become the
// minimum, and migrate into the wheel once a pop rebases the cursor into
// their region.
func TestWheelOverflowSpan(t *testing.T) {
	w := newTimedWheel()
	span := Time(1) << 48 // 256^6
	inside := w.alloc(span-1, 1, nil, nil)
	first := w.alloc(span+5, 2, nil, nil)
	second := w.alloc(span+10, 3, nil, nil)
	w.push(inside)
	w.push(first)
	w.push(second)
	if first.level != levelHeap || second.level != levelHeap {
		t.Fatalf("beyond-span entries levels = %d, %d, want heap", first.level, second.level)
	}
	if e := w.pop(); e != inside {
		t.Fatalf("pop = %+v, want inside entry", e)
	}
	// The cursor (span-1) still differs from span+5 in the top digit, so the
	// outliers stay in the heap but remain the wheel's head.
	if e := w.peek(); e != first {
		t.Fatalf("peek = %+v, want first outlier", e)
	}
	// Popping the first outlier rebases the cursor to span+5; the second
	// outlier is now within span and must migrate out of the heap.
	if e := w.pop(); e != first {
		t.Fatalf("pop = %+v, want first outlier", e)
	}
	if second.level == levelHeap {
		t.Fatalf("second outlier still in heap after rebase (level %d)", second.level)
	}
	if e := w.pop(); e != second {
		t.Fatalf("pop = %+v, want second outlier", e)
	}
	if w.peek() != nil || w.len() != 0 {
		t.Fatalf("wheel not empty after drain: len %d", w.len())
	}
}

// TestWheelKillUnlinksImmediately pins the O(1) cancellation contract: a
// killed wheel entry is recycled on the spot (not dead-marked), and killing
// the cached minimum forces a correct recompute.
func TestWheelKillUnlinksImmediately(t *testing.T) {
	w := newTimedWheel()
	a := w.alloc(10, 1, nil, nil)
	b := w.alloc(20, 2, nil, nil)
	w.push(a)
	w.push(b)
	if w.peek() != a {
		t.Fatal("peek != a")
	}
	w.kill(a) // kills the cached min
	if got := len(w.free); got != 1 {
		t.Fatalf("killed entry not recycled: free len %d", got)
	}
	if w.len() != 1 || w.peek() != b {
		t.Fatalf("after kill: len %d peek %+v, want b", w.len(), w.peek())
	}
	w.kill(b)
	if w.len() != 0 || w.peek() != nil {
		t.Fatalf("after killing all: len %d peek %+v", w.len(), w.peek())
	}
	// Double kill is a no-op (entry already released).
	w.kill(a)
}

// TestAllocsPerWheelScheduleFireCancel extends the zero-allocation pin to the
// timing wheel across all three entry fates: fired level-0 timers, cancelled
// timers, and overflow traffic are all freelist-recycled.
func TestAllocsPerWheelScheduleFireCancel(t *testing.T) {
	k := newMeteredKernel()
	e := k.NewEvent("e")
	// Dense periodic timers at mixed horizons (levels 0 and 1).
	for i := 0; i < 8; i++ {
		d := Time(1+i) * Us
		k.Spawn("tick", func(p *Proc) {
			for {
				p.Wait(d)
			}
		})
	}
	// Cancellation traffic: the timeout never expires, so its wheel entry is
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
		t.Errorf("wheel schedule/fire/cancel allocates %.2f objects per run, want 0", avg)
	}
}
