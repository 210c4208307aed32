package sim

import (
	"container/heap"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// queued counts the entries linked into h's buckets and checks each sits in
// the bucket its time and h.last call for.
func queued(t *testing.T, h *timedHeap) int {
	t.Helper()
	n := 0
	for b := range h.buckets {
		for e := h.buckets[b].head; e != nil; e = e.next {
			if int(e.bucket) != b || bits.Len64(uint64(e.at^h.last)) != b {
				t.Fatalf("entry (%v, seq %d, bucket %d) misplaced in bucket %d (last %v)", e.at, e.seq, e.bucket, b, h.last)
			}
			n++
		}
	}
	return n
}

func TestTimedHeapOrdering(t *testing.T) {
	var h timedHeap
	times := []Time{5, 1, 9, 3, 3, 7, 0, 2}
	for i, at := range times {
		h.push(&timedEntry{at: at, seq: uint64(i)})
	}
	want := append([]Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		if h.peek() == nil {
			t.Fatalf("heap empty at %d", i)
		}
		if e := h.pop(); e.at != w {
			t.Fatalf("pop %d: got %v, want %v", i, e.at, w)
		}
	}
	if h.peek() != nil {
		t.Fatal("heap not empty after draining")
	}
}

// TestTimedHeapStableTies pins the determinism contract: entries scheduled
// for the same instant pop in schedule order, both when they sit in bucket 0
// and when an earlier pop first moves them down from a high bucket.
func TestTimedHeapStableTies(t *testing.T) {
	for _, at := range []Time{0, 100, 255, 256, 65536, 1 << 40, TimeMax} {
		var h timedHeap
		seq := uint64(0)
		if at > 0 {
			seq++
			h.push(h.alloc(at-1, seq, nil, nil))
		}
		const n = 32
		for i := 0; i < n; i++ {
			seq++
			h.push(h.alloc(at, seq, nil, nil))
		}
		if at > 0 {
			h.pop()
		}
		for want := seq - n + 1; want <= seq; want++ {
			e := h.pop()
			if e.at != at || e.seq != want {
				t.Fatalf("at %v: popped (%v, seq %d), want seq %d", at, e.at, e.seq, want)
			}
		}
	}
}

// TestTimedHeapDeadPruning: a killed queued entry leaves the heap and the
// free list takes it back at once; killing the cached minimum forces a
// correct recompute; an entry drained into a permuter batch is only
// dead-marked, since the batch still holds it.
func TestTimedHeapDeadPruning(t *testing.T) {
	var h timedHeap
	a := h.alloc(10, 1, nil, nil)
	b := h.alloc(20, 2, nil, nil)
	h.push(a)
	h.push(b)
	if h.peek() != a {
		t.Fatal("peek != a")
	}
	h.kill(a) // the cached minimum
	if h.free != a || a.bucket != bucketNone {
		t.Fatalf("killed entry not recycled: free %p, bucket %d", h.free, a.bucket)
	}
	if queued(t, &h) != 1 || h.peek() != b {
		t.Fatalf("after kill: %d queued, peek %+v, want b", queued(t, &h), h.peek())
	}
	h.kill(a) // already released: a no-op
	if h.free != a || a.next != nil {
		t.Fatal("double kill touched the free list")
	}

	c := h.pop()
	c.bucket = bucketBatch
	h.kill(c)
	if !c.dead || h.free != a {
		t.Fatalf("batch entry: dead %v, free %p; want dead-marked, not recycled", c.dead, h.free)
	}
	if h.peek() != nil {
		t.Fatalf("heap not empty: peek %+v", h.peek())
	}
}

// TestTimedHeapPushEarlierThanPendingHead covers the rule that makes bounded
// runs safe: peek must not move last, so after peeking a far-future head the
// heap still accepts and orders entries earlier than that head (but not
// earlier than the last pop).
func TestTimedHeapPushEarlierThanPendingHead(t *testing.T) {
	var h timedHeap
	h.push(h.alloc(500, 1, nil, nil))
	h.pop() // last = 500
	far := h.alloc(Time(1<<30), 2, nil, nil)
	h.push(far)
	if got := h.peek(); got != far {
		t.Fatalf("peek = %+v, want far entry", got)
	}
	// An earlier entry scheduled after the peek (e.g. during the next
	// bounded run) must become the new head.
	near := h.alloc(1000, 3, nil, nil)
	h.push(near)
	if got := h.peek(); got != near {
		t.Fatalf("peek after earlier push = %+v, want near entry", got)
	}
	if e := h.pop(); e != near {
		t.Fatalf("pop = %+v, want near entry", e)
	}
	if e := h.pop(); e != far {
		t.Fatalf("second pop = %+v, want far entry", e)
	}
}

// TestTimedHeapFullSpan: the buckets cover every time up to TimeMax with no
// overflow structure, before and after last moves next to TimeMax.
func TestTimedHeapFullSpan(t *testing.T) {
	var h timedHeap
	times := []Time{TimeMax, TimeMax - 1, TimeMax, 1 << 62, 0, TimeMax - 1<<20}
	for i, at := range times {
		h.push(h.alloc(at, uint64(i+1), nil, nil))
	}
	want := []uint64{5, 4, 6, 2, 1, 3}
	for i, seq := range want {
		e := h.pop()
		if e.seq != seq {
			t.Fatalf("pop %d: got (%v, seq %d), want seq %d", i, e.at, e.seq, seq)
		}
		if i == 2 {
			// last is now TimeMax - 1<<20; a push at TimeMax joins its
			// equal-time peers behind them.
			h.push(h.alloc(TimeMax, 7, nil, nil))
		}
	}
	if e := h.pop(); e.at != TimeMax || e.seq != 7 {
		t.Fatalf("last pop = (%v, seq %d), want (TimeMax, seq 7)", e.at, e.seq)
	}
	if h.peek() != nil {
		t.Fatal("heap not empty after draining")
	}
}

// TestTimedHeapRandomized is the pop-order property: across random
// interleavings of pushes at or after the current time (dense same-time
// ties, wide horizons, saturated near-TimeMax deadlines), peeks that stand
// for a run stopped at its horizon, pops and kills of random entries
// (including the cached minimum), the heap pops exactly the (at, seq) order
// of a brute-force linear scan.
func TestTimedHeapRandomized(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h timedHeap
		var live []*timedEntry // the reference: every queued entry
		var seq uint64
		cur := Time(0) // time of the last pop; pushes never go below it

		refMin := func() int {
			best := -1
			for i, e := range live {
				if best < 0 || e.at < live[best].at || e.at == live[best].at && e.seq < live[best].seq {
					best = i
				}
			}
			return best
		}
		remove := func(i int) { live = append(live[:i], live[i+1:]...) }
		push := func(at Time) {
			seq++
			e := h.alloc(at, seq, nil, nil)
			h.push(e)
			live = append(live, e)
		}
		pop := func() bool {
			i := refMin()
			if i < 0 {
				if e := h.peek(); e != nil {
					t.Fatalf("seed %d: peek %+v, reference empty", seed, e)
				}
				return false
			}
			want := live[i]
			if got := h.pop(); got != want {
				t.Fatalf("seed %d: pop (%v, seq %d), want (%v, seq %d)", seed, got.at, got.seq, want.at, want.seq)
			}
			cur = want.at
			remove(i)
			h.release(want)
			return true
		}

		for op := 0; op < 3000; op++ {
			switch rng.Intn(12) {
			case 0, 1, 2:
				push(AddSat(cur, Time(rng.Int63n(50)))) // ties, including at cur
			case 3, 4:
				push(AddSat(cur, Time(rng.Int63n(int64(Ms)))))
			case 5:
				// Saturating deadlines pile up at and just below TimeMax.
				push(AddSat(cur, TimeMax-Time(rng.Int63n(4))-cur/2))
			case 6, 7, 8:
				pop()
			case 9:
				// A run stopped at its horizon: the head is peeked, not
				// popped, and the next run may push earlier than it.
				if i := refMin(); i >= 0 {
					if got := h.peek(); got != live[i] {
						t.Fatalf("seed %d: peek (%v, seq %d), want seq %d", seed, got.at, got.seq, live[i].seq)
					}
					push(cur + Time(rng.Int63n(max(1, int64(live[i].at-cur)))))
				}
			case 10:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					e := live[i]
					remove(i)
					h.kill(e)
				}
			default:
				// Kill the cached minimum.
				if i := refMin(); i >= 0 {
					e := live[i]
					if h.peek() != e {
						t.Fatalf("seed %d: peek disagrees before kill", seed)
					}
					remove(i)
					h.kill(e)
				}
			}
			if n := queued(t, &h); n != len(live) {
				t.Fatalf("seed %d op %d: %d entries queued, reference holds %d", seed, op, n, len(live))
			}
		}
		for pop() {
		}
	}
}

// The three tests below keep the names they had when the timed queue was a
// timing wheel with an overflow heap; they now pin the same contracts on the
// radix heap.

// refHeap is an independent (at, seq) binary heap, the reference for
// TestWheelMatchesHeapRandomized.
type refHeap []*timedEntry

func (r refHeap) Len() int { return len(r) }
func (r refHeap) Less(i, j int) bool {
	return r[i].at < r[j].at || r[i].at == r[j].at && r[i].seq < r[j].seq
}
func (r refHeap) Swap(i, j int) { r[i], r[j] = r[j], r[i] }
func (r *refHeap) Push(x any)   { *r = append(*r, x.(*timedEntry)) }
func (r *refHeap) Pop() any {
	old := *r
	e := old[len(old)-1]
	*r = old[:len(old)-1]
	return e
}

// TestWheelMatchesHeapRandomized is the pop-order equivalence property
// against a binary heap: across random interleavings of pushes (duplicate
// timestamps, wider horizons and far outliers), pops and cancellations, the
// timed queue pops exactly the reference's (at, seq) order. Cancelled
// reference entries are dead-marked and skipped, as a lazy-deletion heap
// would.
func TestWheelMatchesHeapRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h timedHeap
		var ref refHeap
		type pair struct{ q, r *timedEntry }
		var live []pair
		var seq uint64
		cur := Time(0)
		pop := func() bool {
			for ref.Len() > 0 && ref[0].dead {
				heap.Pop(&ref)
			}
			got := h.peek()
			if (got == nil) != (ref.Len() == 0) {
				t.Fatalf("seed %d: peek %+v, reference holds %d", seed, got, ref.Len())
			}
			if got == nil {
				return false
			}
			want := heap.Pop(&ref).(*timedEntry)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d: pop (%v, seq %d), want (%v, seq %d)", seed, got.at, got.seq, want.at, want.seq)
			}
			h.pop()
			for i, p := range live {
				if p.q == got {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			cur = got.at
			h.release(got)
			return true
		}
		for op := 0; op < 2000; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				seq++
				at := cur + Time(rng.Int63n(50))
				q := h.alloc(at, seq, nil, nil)
				h.push(q)
				r := &timedEntry{at: at, seq: seq}
				heap.Push(&ref, r)
				live = append(live, pair{q, r})
			case 3, 4:
				seq++
				at := cur + Time(rng.Int63n(int64(Us)*1000))
				if rng.Intn(20) == 0 {
					at = cur + Time(rng.Int63n(int64(Sec)))*300
				}
				q := h.alloc(at, seq, nil, nil)
				h.push(q)
				r := &timedEntry{at: at, seq: seq}
				heap.Push(&ref, r)
				live = append(live, pair{q, r})
			case 5, 6, 7:
				pop()
			default:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					p := live[i]
					live = append(live[:i], live[i+1:]...)
					h.kill(p.q)
					p.r.dead = true
				}
			}
			if n := queued(t, &h); n != len(live) {
				t.Fatalf("seed %d op %d: %d entries queued, %d live", seed, op, n, len(live))
			}
		}
		for pop() {
		}
		if len(live) != 0 {
			t.Fatalf("seed %d: %d live entries left after drain", seed, len(live))
		}
	}
}

// TestWheelSeqFIFOWithinTimestamp pins the determinism contract: entries
// scheduled for the same instant pop in schedule order, whatever bucket the
// shared timestamp lands in relative to the last pop.
func TestWheelSeqFIFOWithinTimestamp(t *testing.T) {
	for _, at := range []Time{0, 100, 255, 256, 65536, 1 << 40, TimeMax} {
		var h timedHeap
		const n = 32
		for i := uint64(1); i <= n; i++ {
			h.push(h.alloc(at, i, nil, nil))
		}
		for i := uint64(1); i <= n; i++ {
			e := h.peek()
			if e == nil || e.at != at || e.seq != i {
				t.Fatalf("at %v: pop %d returned %+v", at, i, e)
			}
			h.pop()
			h.release(e)
		}
		if h.peek() != nil {
			t.Fatalf("at %v: queue not empty after drain", at)
		}
	}
}

// TestWheelKillUnlinksImmediately pins the O(1) cancellation contract: a
// killed queued entry is recycled on the spot (not dead-marked), killing the
// cached minimum forces a correct recompute, and a double kill is a no-op.
func TestWheelKillUnlinksImmediately(t *testing.T) {
	var h timedHeap
	a := h.alloc(10, 1, nil, nil)
	b := h.alloc(20, 2, nil, nil)
	h.push(a)
	h.push(b)
	if h.peek() != a {
		t.Fatal("peek != a")
	}
	h.kill(a) // kills the cached min
	if h.free != a || a.dead {
		t.Fatalf("killed entry not recycled: free %p, dead %v", h.free, a.dead)
	}
	if queued(t, &h) != 1 || h.peek() != b {
		t.Fatalf("after kill: %d queued, peek %+v, want b", queued(t, &h), h.peek())
	}
	h.kill(b)
	if queued(t, &h) != 0 || h.peek() != nil || h.occ != 0 {
		t.Fatalf("after killing all: %d queued, peek %+v, occ %#x", queued(t, &h), h.peek(), h.occ)
	}
	if h.free != b || b.next != a {
		t.Fatal("free list does not hold both killed entries")
	}
	// Double kill is a no-op (entry already released).
	h.kill(a)
	if h.free != b || b.next != a || a.next != nil {
		t.Fatal("double kill touched the free list")
	}
}
