// Package fifo provides the one FIFO helper shared by every blocked-task
// queue in the model (communication relations, aperiodic servers, the
// threaded RTOS engine's switch-out list), message-queue buffers and the
// outstanding starts of latency constraints.
//
// All pops use a copy-down removal instead of reslicing from the front:
// `s = s[1:]` permanently strands the buffer capacity in front of the slice
// and forces append to reallocate forever on a queue that cycles through a
// steady state. Copy-down keeps the buffer anchored, so a queue that reaches
// its high-water mark never allocates again — the property the model's
// zero-allocation context-switch paths depend on.
package fifo

// Queue is a FIFO of T backed by one reusable buffer. The zero value is an
// empty queue ready for use.
type Queue[T any] struct {
	items []T
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return len(q.items) == 0 }

// Push appends v at the back of the queue.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// Pop removes and returns the front item. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	return q.RemoveAt(0)
}

// Front returns a pointer to the front item, valid until the next mutation.
// It panics on an empty queue.
func (q *Queue[T]) Front() *T { return &q.items[0] }

// Items exposes the queued items front to back. The slice aliases the
// queue's buffer: callers may inspect it (priority scans) but must not
// append to or retain it across mutations.
func (q *Queue[T]) Items() []T { return q.items }

// RemoveAt removes and returns the item at position i (0 is the front),
// preserving the order of the remaining items with a copy-down and zeroing
// the vacated tail slot so the queue never pins freed references.
func (q *Queue[T]) RemoveAt(i int) T {
	v := q.items[i]
	n := i + copy(q.items[i:], q.items[i+1:])
	var zero T
	q.items[n] = zero
	q.items = q.items[:n]
	return v
}
