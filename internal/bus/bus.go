// Package bus models shared communication resources — the "communications
// network" the paper lists among the physical constraints that high-level
// simulation must take into account for design-space exploration (section
// 2: "it does not take into account the influence of implementation choices
// or physical constraints (processor, RTOS, communications network)").
//
// A Bus serializes transfers: each transfer holds the bus for a duration
// proportional to its size plus a fixed arbitration overhead; contending
// actors queue by priority (FIFO among equals). A Channel layers a typed
// message queue on top of a bus, so moving a message between processors
// costs simulated transfer time on the shared medium — turning the
// zero-time MCSE queue of the functional model into an implementation-level
// link.
package bus

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Sleeper is the actor-side ability to let simulated time pass while a
// transfer occupies the bus. rtos.TaskCtx satisfies it with Delay (the
// processor is free during a DMA-style transfer) and rtos.HWCtx with Wait.
type Sleeper interface {
	SleepFor(d sim.Time)
}

// Config carries a bus's physical parameters.
type Config struct {
	// PerByte is the transfer time per byte (1/bandwidth).
	PerByte sim.Time
	// Arbitration is the fixed cost to acquire the bus for one transfer.
	Arbitration sim.Time
}

// Bus is a shared, serialized transfer medium.
type Bus struct {
	rec  *trace.Recorder
	name string
	cfg  Config

	mu *comm.Mutex

	transfers uint64
	busyTime  sim.Time
}

// New creates a bus. rec may be nil to disable tracing.
func New(rec *trace.Recorder, name string, cfg Config) *Bus {
	if cfg.PerByte < 0 || cfg.Arbitration < 0 {
		panic("bus: negative timing parameter")
	}
	return &Bus{
		rec: rec, name: name, cfg: cfg,
		mu: comm.NewMutex(rec, name+".arbiter"),
	}
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

// Transfers returns the number of completed transfers.
func (b *Bus) Transfers() uint64 { return b.transfers }

// BusyTime returns the cumulative time the bus spent transferring.
func (b *Bus) BusyTime() sim.Time { return b.busyTime }

// TransferTime returns the bus occupancy of one transfer of n bytes.
func (b *Bus) TransferTime(n int) sim.Time {
	return b.cfg.Arbitration + sim.Time(n)*b.cfg.PerByte
}

// Transfer moves n bytes over the bus on behalf of actor a, blocking for
// arbitration (priority-ordered wait on the bus mutex) and then for the
// transfer duration. The actor must implement Sleeper; it does not consume
// its processor during the transfer (DMA-style).
func (b *Bus) Transfer(a comm.Actor, n int) {
	s, ok := a.(Sleeper)
	if !ok {
		panic(fmt.Sprintf("bus: actor %q cannot sleep for a transfer (no SleepFor)", a.Name()))
	}
	b.mu.Lock(a)
	if d := b.BeginTransfer(n); d > 0 {
		s.SleepFor(d)
	}
	b.EndTransfer(a, n)
}

// Arbiter returns the bus mutex. Callers that cannot block inside Transfer
// (continuation task bodies) lock it, then call BeginTransfer and EndTransfer.
func (b *Bus) Arbiter() *comm.Mutex { return b.mu }

// BeginTransfer opens a transfer of n bytes by the holder of the arbiter and
// returns the occupancy the holder must wait out before EndTransfer.
func (b *Bus) BeginTransfer(n int) sim.Time {
	if n < 0 {
		panic("bus: negative transfer size")
	}
	d := b.TransferTime(n)
	if d > 0 {
		b.rec.Depth(b.name, 1, 1)
	}
	return d
}

// EndTransfer closes actor a's transfer of n bytes: it books the transfer
// and releases the arbiter.
func (b *Bus) EndTransfer(a comm.Actor, n int) {
	if d := b.TransferTime(n); d > 0 {
		b.rec.Depth(b.name, 0, 1)
		b.busyTime += d
	}
	b.transfers++
	b.rec.Access(a.Name(), b.name, trace.AccessWrite)
	b.mu.Unlock(a)
}

// Channel is a typed message queue whose Send pays for the transfer on a
// shared bus: the sending actor arbitrates for the bus, the payload
// occupies it for size*PerByte, and only then does the message land in the
// receiver-side queue.
type Channel[T any] struct {
	bus   *Bus
	queue *comm.Queue[T]
	size  func(T) int
}

// NewChannel creates a channel of the given capacity over the bus; size
// returns a message's payload size in bytes (nil means fixed 1 byte).
func NewChannel[T any](b *Bus, name string, capacity int, size func(T) int) *Channel[T] {
	if size == nil {
		size = func(T) int { return 1 }
	}
	return &Channel[T]{
		bus:   b,
		queue: comm.NewQueue[T](b.rec, name, capacity),
		size:  size,
	}
}

// Name returns the channel name.
func (c *Channel[T]) Name() string { return c.queue.Name() }

// Queue exposes the receiver-side queue (for Len/Cap inspection).
func (c *Channel[T]) Queue() *comm.Queue[T] { return c.queue }

// Send transfers the message over the bus, then enqueues it (blocking while
// the destination queue is full).
func (c *Channel[T]) Send(a comm.Actor, v T) {
	c.bus.Transfer(a, c.size(v))
	c.queue.Put(a, v)
}

// Recv dequeues the oldest message, blocking while the queue is empty.
// Reception costs no bus time (the payload already crossed on Send).
func (c *Channel[T]) Recv(a comm.Actor) T {
	return c.queue.Get(a)
}

// String describes the channel configuration.
func (c *Channel[T]) String() string {
	return fmt.Sprintf("channel %s over bus %s (cap %d)", c.queue.Name(), c.bus.name, c.queue.Cap())
}
