package psim

import (
	"repro/internal/comm"
	"repro/internal/sim"
)

// injector is the receiver-side end of one inbound cross-shard channel: a
// strand on the receiving kernel that replays arriving messages into the
// channel's local delivery queue at their timestamps. The shard driver feeds
// it between kernel runs (same goroutine, kernel idle); the strand delivers
// during runs, blocking on a full queue exactly like a local producer —
// PutAttempt parks it on the queue's producer wait list and a consumer's
// Resume re-triggers the strand.
type injector struct {
	q       *comm.Queue[int]
	strand  *sim.Strand
	pending []message
	head    int
	actor   injectorActor
}

// injectorActor adapts the injector to comm.Actor. Its name tracks the
// message being delivered, so the receiver-side trace records the original
// sender's accesses just as the sequential run would.
type injectorActor struct {
	name string
	inj  *injector
}

func (a *injectorActor) Name() string  { return a.name }
func (a *injectorActor) Priority() int { return 0 }
func (a *injectorActor) Resume()       { a.inj.strand.Run() }
func (a *injectorActor) Suspend(bool, string) {
	panic("psim: injector must not suspend (delivery uses PutAttempt)")
}

func newInjector(k *sim.Kernel, channel string, q *comm.Queue[int]) *injector {
	inj := &injector{q: q}
	inj.actor.inj = inj
	inj.strand = k.NewStrand("psim:"+channel, inj.step, false)
	// Like a daemon process, an injector idles forever once its feed dries
	// up; that is not a deadlock.
	inj.strand.Finish()
	return inj
}

// step delivers every pending message that is due. A message beyond the
// current instant re-arms the private timer; a full queue leaves the strand
// parked on the queue's producer list until a consumer frees a slot.
func (inj *injector) step(s *sim.Strand) {
	k := s.Kernel()
	for inj.head < len(inj.pending) {
		m := inj.pending[inj.head]
		if m.ts > k.Now() {
			s.WakeAt(m.ts)
			return
		}
		inj.actor.name = m.sender
		if !inj.q.PutAttempt(&inj.actor, m.value) {
			return
		}
		inj.head++
	}
	inj.pending = inj.pending[:0]
	inj.head = 0
}

// feed hands the injector a drained message; called by the shard driver
// between kernel runs. Per-link timestamps are non-decreasing (the sending
// bus serializes transfers), so the pending list stays sorted and only a
// transition from empty needs to arm the timer. Conservative sync guarantees
// m.ts is never in the kernel's past — at worst it equals the current
// instant, where the delivery happens in the next run's first delta cycles.
func (inj *injector) feed(m message) {
	wasEmpty := inj.head >= len(inj.pending)
	inj.pending = append(inj.pending, m)
	if wasEmpty && !inj.strand.WakePending() {
		t := m.ts
		if now := inj.strand.Kernel().Now(); t < now {
			t = now
		}
		inj.strand.WakeAt(t)
	}
}
