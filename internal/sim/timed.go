package sim

import "math/bits"

// timedEntry is a scheduled future action: either a timed event notification
// (event != nil) or a process timeout wakeup (proc != nil).
type timedEntry struct {
	at    Time
	seq   uint64 // insertion order; ties fire in scheduling order
	event *Event
	proc  *Proc
	dead  bool // cancelled while drained into a permuter batch

	// next/prev link the entry into its bucket's FIFO list (next alone links
	// the free list); bucket says where it lives.
	next, prev *timedEntry
	bucket     int8
}

const (
	// heapBuckets covers bits.Len64(at ^ last) for every pair of times in
	// [0, TimeMax]; the kernel never schedules a negative time.
	heapBuckets = 64

	bucketNone = int8(-1) // not queued: free, popped, or killed

	// bucketBatch marks an entry drained into the kernel's same-instant
	// firing batch (permute.go). The entry is out of the heap but still
	// referenced by the batch, so kill only dead-marks it; the batch loop
	// skips and recycles dead entries itself.
	bucketBatch = int8(-2)
)

// timedHeap is the kernel's timed-notification queue: a monotone radix heap
// ordered by (at, seq) with picosecond resolution over all of [0, TimeMax].
//
// An entry lives in bucket bits.Len64(at ^ last), where last is the time of
// the last pop. Pushes are never earlier than the kernel's now, which is
// never earlier than last, so every entry of bucket b agrees with last
// above bit b-1 and has that bit set where last has it clear: each bucket
// holds a time range below the next non-empty one, and bucket 0 holds
// exactly the entries at last. Equal times always share a bucket, and each
// bucket is a FIFO appended in seq order, so scanning a bucket for the first
// earliest entry yields the lowest seq among ties.
//
// Pop is the only operation that moves last. Popping the minimum of bucket
// b > 0 moves last into b's range; entries of higher buckets keep their
// index, and b's other entries move, in list order, into the lower buckets
// (all empty at that point), which keeps ties in seq order. Each entry
// moves down at most 63 times over its life, so pop is amortized O(1) in
// the number of entries. Peek never moves last, so a run stopped at its
// horizon still accepts entries earlier than the pending head.
type timedHeap struct {
	last    Time
	min     *timedEntry // cached earliest entry; nil means recompute on peek
	occ     uint64      // bit b set when bucket b is non-empty
	buckets [heapBuckets]struct{ head, tail *timedEntry }
	free    *timedEntry // recycled entries, linked through next
}

// alloc returns a recycled (or new) entry initialized with the given fields.
func (h *timedHeap) alloc(at Time, seq uint64, e *Event, p *Proc) *timedEntry {
	entry := h.free
	if entry != nil {
		h.free = entry.next
		entry.next = nil
	} else {
		entry = &timedEntry{bucket: bucketNone}
	}
	entry.at, entry.seq, entry.event, entry.proc = at, seq, e, p
	return entry
}

// release returns an unqueued, live entry to the free list. The caller
// guarantees no outstanding references: the very next alloc may hand it out
// again.
func (h *timedHeap) release(e *timedEntry) {
	e.event, e.proc = nil, nil
	e.bucket = bucketNone
	e.next = h.free
	h.free = e
}

// push queues e; e.at must not be earlier than the last pop.
func (h *timedHeap) push(e *timedEntry) {
	empty := h.occ == 0
	h.insert(e)
	if empty || h.min != nil && e.at < h.min.at {
		h.min = e
	}
}

// insert appends e to the tail of its bucket.
func (h *timedHeap) insert(e *timedEntry) {
	b := bits.Len64(uint64(e.at ^ h.last))
	e.bucket = int8(b)
	bk := &h.buckets[b]
	if bk.tail == nil {
		bk.head = e
		h.occ |= 1 << b
	} else {
		e.prev = bk.tail
		bk.tail.next = e
	}
	bk.tail = e
}

// unlink removes e from its bucket list.
func (h *timedHeap) unlink(e *timedEntry) {
	b := e.bucket
	bk := &h.buckets[b]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		bk.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		bk.tail = e.prev
	}
	if bk.head == nil {
		h.occ &^= 1 << b
	}
	e.next, e.prev = nil, nil
	e.bucket = bucketNone
}

// peek returns the earliest entry without removing it, or nil when empty.
func (h *timedHeap) peek() *timedEntry {
	if h.min == nil {
		h.min = h.findMin()
	}
	return h.min
}

// findMin returns the first earliest entry of the lowest non-empty bucket.
// Bucket 0 holds a single time, so its head is the answer without a scan.
func (h *timedHeap) findMin() *timedEntry {
	if h.occ == 0 {
		return nil
	}
	b := bits.TrailingZeros64(h.occ)
	best := h.buckets[b].head
	if b == 0 {
		return best
	}
	for e := best.next; e != nil; e = e.next {
		if e.at < best.at {
			best = e
		}
	}
	return best
}

// pop removes and returns the earliest entry; callers must check peek first.
func (h *timedHeap) pop() *timedEntry {
	e := h.peek()
	h.min = nil
	b := e.bucket
	h.unlink(e)
	if b > 0 {
		h.last = e.at
		bk := &h.buckets[b]
		rest := bk.head
		bk.head, bk.tail = nil, nil
		h.occ &^= 1 << b
		for rest != nil {
			next := rest.next
			rest.next, rest.prev = nil, nil
			h.insert(rest)
			rest = next
		}
	}
	return e
}

// kill cancels a scheduled entry: a queued entry is unlinked and recycled at
// once (the caller drops its pointer, as cancelTimed requires), a batch
// entry is dead-marked, and an unqueued one is left alone.
func (h *timedHeap) kill(e *timedEntry) {
	switch e.bucket {
	case bucketNone:
	case bucketBatch:
		e.dead = true
	default:
		if h.min == e {
			h.min = nil
		}
		h.unlink(e)
		h.release(e)
	}
}
