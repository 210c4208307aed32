package sim

import "math/bits"

// timedWheel is the kernel's timed-notification queue: a
// hierarchical timing wheel with one-picosecond resolution, six levels of
// 256 slots, and the binary heap as overflow storage for entries beyond the
// wheel's span (256^6 ps ≈ 280 s ahead of the cursor). Schedule and cancel
// are O(1); pop is O(1) on the dense path (level-0 slots) and amortizes the
// occasional cascade over the entries it moves.
//
// Placement: an entry lands at the level of the highest base-256 digit where
// its timestamp differs from the cursor (level 0 when equal). Because the
// cursor only advances to timestamps that have been popped, and pushes are
// never in the cursor's past, occupied slots are always ahead of the cursor
// at their level and the wheel never wraps — which is what makes pop order
// exact (at, seq) order rather than the approximate ordering of classic
// timer wheels:
//
//   - all entries in one level-0 slot share an identical timestamp, so the
//     slot's FIFO list is exactly seq order;
//   - a level >= 1 slot s cannot gain entries at levels below it while s is
//     pending (that would require the cursor to carry s's digit, which only
//     happens when s itself is popped and cascaded), so same-timestamp
//     entries always share a slot in append order;
//   - the overflow heap only holds entries differing from the cursor in a
//     digit the wheel does not cover, which makes every overflow entry later
//     than every wheel entry; the wheel consults it only when empty.
//
// The cursor moves exclusively in pop — peek is read-only — so a run that
// stops at its horizon leaves the wheel able to accept entries earlier than
// the currently-pending head (scheduled between or after runs), which a
// peek-time cursor advance would break.
type timedWheel struct {
	cur   Time        // cursor: timestamp of the last popped entry
	count int         // live entries in the wheel (overflow excluded)
	min   *timedEntry // cached earliest entry; nil means recompute on peek

	slots [wheelLevels][wheelSlots]wheelSlot
	occ   [wheelLevels][wheelSlots / 64]uint64 // occupancy bitmaps

	overflow timedHeap // entries beyond the wheel's span

	free []*timedEntry
}

const (
	wheelLevels = 6
	wheelSlots  = 256

	levelNone = int8(-1)          // not queued (free, popped, or killed)
	levelHeap = int8(wheelLevels) // parked in the overflow heap

	// levelBatch marks an entry drained into the kernel's same-instant
	// firing batch (permute.go). The entry is out of the wheel and the
	// overflow heap but still referenced by the batch, so kill must only
	// dead-mark it — the batch loop skips and recycles dead entries itself.
	levelBatch = int8(-2)
)

// wheelSlot is one doubly-linked FIFO of entries (via timedEntry.next/prev).
type wheelSlot struct{ head, tail *timedEntry }

func newTimedWheel() *timedWheel {
	return &timedWheel{}
}

// digit extracts base-256 digit l of a timestamp.
func digit(t Time, l int) int { return int(uint64(t)>>(uint(l)*8)) & 0xff }

// diffLevel is the index of the highest base-256 digit where a and b differ
// (0 when equal); values >= wheelLevels mean "outside the wheel's span".
func diffLevel(a, b Time) int {
	x := uint64(a) ^ uint64(b)
	if x == 0 {
		return 0
	}
	return (bits.Len64(x) - 1) >> 3
}

func (w *timedWheel) len() int { return w.count + w.overflow.len() }

func (w *timedWheel) alloc(at Time, seq uint64, e *Event, p *Proc) *timedEntry {
	var entry *timedEntry
	if n := len(w.free); n > 0 {
		entry = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	} else if n := len(w.overflow.free); n > 0 {
		// Dead overflow entries are recycled into the heap's own pool when
		// they surface; pull from there before allocating fresh.
		entry = w.overflow.free[n-1]
		w.overflow.free[n-1] = nil
		w.overflow.free = w.overflow.free[:n-1]
	} else {
		entry = new(timedEntry)
	}
	// Recycled entries come back with next/prev nil and level levelNone
	// (release and heap.release reset them), so only the live fields need
	// assigning.
	entry.at, entry.seq, entry.event, entry.proc = at, seq, e, p
	entry.dead = false
	entry.level = levelNone
	return entry
}

func (w *timedWheel) release(e *timedEntry) {
	e.event, e.proc, e.next, e.prev = nil, nil, nil, nil
	e.level = levelNone
	w.free = append(w.free, e)
}

func (w *timedWheel) push(e *timedEntry) {
	l := diffLevel(e.at, w.cur)
	if l >= wheelLevels {
		e.level = levelHeap
		w.overflow.push(e)
		// A later-than-span entry can still be the minimum, but only when the
		// wheel is empty and the cached min is another overflow entry; the
		// general rule below covers that case too (an overflow entry is never
		// earlier than a wheel entry).
		if w.min != nil && e.at < w.min.at {
			w.min = e
		}
		return
	}
	w.insert(e, l)
	if w.min == nil {
		// Cheap single-timer fast path: pushing into an empty structure makes
		// this entry the minimum without a scan. Otherwise stay lazy.
		if w.count == 1 && len(w.overflow.entries) == w.overflow.dead {
			w.min = e
		}
	} else if e.at < w.min.at {
		w.min = e
	}
}

// insert links e at the tail of slot digit(e.at, l) of level l.
func (w *timedWheel) insert(e *timedEntry, l int) {
	s := digit(e.at, l)
	e.level, e.slot = int8(l), uint8(s)
	sl := &w.slots[l][s]
	if sl.tail == nil {
		sl.head, sl.tail = e, e
		w.occ[l][s>>6] |= 1 << (s & 63)
	} else {
		e.prev = sl.tail
		sl.tail.next = e
		sl.tail = e
	}
	w.count++
}

// unlink removes e from its slot list, clearing the occupancy bit when the
// slot empties.
func (w *timedWheel) unlink(e *timedEntry) {
	sl := &w.slots[e.level][e.slot]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sl.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sl.tail = e.prev
	}
	if sl.head == nil {
		w.occ[e.level][e.slot>>6] &^= 1 << (e.slot & 63)
	}
	e.next, e.prev = nil, nil
	e.level = levelNone
	w.count--
}

// findSlot returns the lowest occupied slot index of level l, or -1. Slots
// never sit behind the cursor (placement is always ahead), so the scan
// starts at zero.
func (w *timedWheel) findSlot(l int) int {
	bm := &w.occ[l]
	for wi := range bm {
		if b := bm[wi]; b != 0 {
			return wi<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// peek returns the earliest live entry without removing it, or nil when
// empty. It never moves the cursor.
func (w *timedWheel) peek() *timedEntry {
	if w.min != nil {
		return w.min
	}
	if w.count == 0 {
		w.min = w.overflow.peek()
		return w.min
	}
	if s := w.findSlot(0); s >= 0 {
		// Level-0 slot-mates share one timestamp; the head has the lowest seq.
		w.min = w.slots[0][s].head
		return w.min
	}
	for l := 1; l < wheelLevels; l++ {
		s := w.findSlot(l)
		if s < 0 {
			continue
		}
		// The lowest occupied level's first slot holds the earliest region;
		// pick the earliest entry within it. Same-timestamp entries are in
		// seq order, so strict less keeps the earliest seq.
		best := w.slots[l][s].head
		for e := best.next; e != nil; e = e.next {
			if e.at < best.at {
				best = e
			}
		}
		w.min = best
		return best
	}
	panic("sim: timing wheel lost an entry")
}

// pop removes and returns the earliest entry; callers must check peek first.
// Popping is the only operation that advances the cursor, and a cursor jump
// re-places exactly the popped entry's slot-mates (for the overflow path:
// every overflow entry now within span).
func (w *timedWheel) pop() *timedEntry {
	e := w.peek()
	w.min = nil
	if e.level == levelHeap {
		w.overflow.pop() // peek pruned dead heads, so this pops e itself
		e.level = levelNone
		w.cur = e.at
		for {
			h := w.overflow.peek()
			if h == nil {
				break
			}
			l := diffLevel(h.at, w.cur)
			if l >= wheelLevels {
				break
			}
			w.overflow.pop()
			w.insert(h, l)
		}
		return e
	}
	l, s := int(e.level), int(e.slot)
	w.unlink(e)
	w.cur = e.at
	if l > 0 && w.slots[l][s].head != nil {
		w.cascade(l, s)
	}
	return e
}

// cascade re-places the entries of slot (l, s) after the cursor jumped into
// that slot's time region: their highest digit differing from the cursor is
// now below l. Iterating in list order preserves seq order for equal
// timestamps (the target slots cannot already hold later-seq entries of the
// same timestamp — see the type comment).
func (w *timedWheel) cascade(l, s int) {
	sl := &w.slots[l][s]
	e := sl.head
	if e == nil {
		return
	}
	sl.head, sl.tail = nil, nil
	w.occ[l][s>>6] &^= 1 << (s & 63)
	for e != nil {
		next := e.next
		e.next, e.prev = nil, nil
		w.count--
		w.insert(e, diffLevel(e.at, w.cur))
		e = next
	}
}

// kill cancels a scheduled entry. Wheel entries unlink in O(1) and recycle
// immediately (the caller drops its pointer, as cancelTimed requires);
// overflow entries are dead-marked for the heap to discard lazily.
func (w *timedWheel) kill(e *timedEntry) {
	switch e.level {
	case levelNone:
		return
	case levelBatch:
		e.dead = true
	case levelHeap:
		if w.min == e {
			w.min = nil
		}
		w.overflow.kill(e)
	default:
		if w.min == e {
			w.min = nil
		}
		w.unlink(e)
		w.release(e)
	}
}
