package psim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// xlink is one cross-shard channel at run time. The sender shard pushes
// timestamped messages into the ring and advertises, through promise, a
// conservative lower bound on the timestamp of every future message; the
// receiver shard may safely simulate up to (and including) the minimum of
// its inbound promises. floors/nextFloor are sender-side only (in-flight
// split-phase transfers); promise is the only cross-goroutine word besides
// the ring.
type xlink struct {
	channel   string
	lookahead sim.Time
	promise   atomic.Int64
	q         *ring
	dst       *shardRun

	floors    map[int]sim.Time
	nextFloor int
	inj       *injector // receiver side
}

func (l *xlink) minFloor() (sim.Time, bool) {
	ok := false
	var min sim.Time
	for _, f := range l.floors {
		if !ok || f < min {
			min, ok = f, true
		}
	}
	return min, ok
}

// shardRun is one shard's runtime state, owned by its driver goroutine.
type shardRun struct {
	idx   int
	built *scenario.Built
	in    []*xlink
	out   []*xlink
	outBy map[string]*xlink
	wake  chan struct{}

	lastLimit sim.Time
	started   bool
	rep       sim.Report
	lastErr   error // last round's RunChecked error (deadlock diagnosis)
	err       error // fatal (panic-class) failure of this shard
}

func (s *shardRun) nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// bound returns the conservative simulation bound: the minimum inbound
// promise, TimeMax with no inbound links.
func (s *shardRun) bound() sim.Time {
	b := sim.TimeMax
	for _, l := range s.in {
		if p := sim.Time(l.promise.Load()); p < b {
			b = p
		}
	}
	return b
}

// drain moves arrived messages into the injectors; it reports whether any
// message arrived. Called with the kernel idle, after bound() — the acquire
// load of each promise orders the ring reads after the sender's pushes.
func (s *shardRun) drain() bool {
	fed := false
	for _, l := range s.in {
		for {
			m, ok := l.q.pop()
			if !ok {
				break
			}
			l.inj.feed(m)
			fed = true
		}
	}
	return fed
}

// Result is one finished parallel run, the materials the runner composes
// reports and artifacts from.
type Result struct {
	Plan *scenario.ShardPlan
	// Builts holds each shard's elaborated system, plan group order.
	Builts []*scenario.Built
	// End is the aggregate simulated end time (max over shards); Finish the
	// aggregate reason: limit if any shard hit the horizon, else deadlock
	// if anything is still blocked, else quiescent.
	End    sim.Time
	Finish sim.FinishReason
	// Activations and DeltaCycles sum the shard kernels' effort counters.
	Activations uint64
	DeltaCycles uint64
	// Err is the aggregate simulation failure (panic or whole-model
	// deadlock), nil on a clean finish. Mirrors Built.RunChecked: every
	// shard kernel has been shut down, failed or not.
	Err error
}

// Run simulates a scenario under a shard plan, one kernel per shard group,
// each on its own goroutine, conservatively synchronized by channel
// lookahead. It refuses a plan with fewer than two groups: one group is the
// whole model on one kernel, which the sequential engine (Built.RunChecked)
// runs directly.
func Run(desc *scenario.System, plan *scenario.ShardPlan) (*Result, error) {
	n := len(plan.Groups)
	if n < 2 {
		return nil, fmt.Errorf("psim: plan has %d group(s), want at least 2; run a one-group plan on the sequential engine", n)
	}
	horizon := plan.Horizon // finite: Partition requires it for multi-group plans
	// Null-message rounds advance a shard by at least its inbound lookahead,
	// so chunking mainly paces source-like shards (no inbound bound): they
	// publish bound advances every chunk instead of running to the horizon
	// in one opaque step, keeping downstream shards fed.
	chunk := horizon/256 + 1

	shards := make([]*shardRun, n)
	for i := range shards {
		shards[i] = &shardRun{
			idx:       i,
			outBy:     map[string]*xlink{},
			wake:      make(chan struct{}, 1),
			lastLimit: -1,
		}
	}
	for _, pl := range plan.Links {
		l := &xlink{
			channel:   pl.Channel,
			lookahead: pl.Lookahead,
			q:         newRing(),
			dst:       shards[pl.To],
			floors:    map[int]sim.Time{},
		}
		l.promise.Store(int64(pl.Lookahead))
		shards[pl.From].out = append(shards[pl.From].out, l)
		shards[pl.From].outBy[pl.Channel] = l
		shards[pl.To].in = append(shards[pl.To].in, l)
	}

	res := &Result{Plan: plan, Builts: make([]*scenario.Built, n)}
	for i, s := range shards {
		s := s
		var inbound []struct {
			ch string
			q  *comm.Queue[int]
		}
		hooks := &scenario.CrossHooks{
			Publish: func(channel, sender string, value int) {
				l := s.outBy[channel]
				l.q.push(message{ts: s.built.Sys.Now(), value: value, sender: sender})
			},
			FloorHold: func(channel string, earliest sim.Time) int {
				l := s.outBy[channel]
				id := l.nextFloor
				l.nextFloor++
				l.floors[id] = earliest
				return id
			},
			FloorRelease: func(channel string, id int) {
				delete(s.outBy[channel].floors, id)
			},
			Inbound: func(channel string, q *comm.Queue[int]) {
				inbound = append(inbound, struct {
					ch string
					q  *comm.Queue[int]
				}{channel, q})
			},
		}
		built, err := desc.BuildShard(plan, i, hooks)
		if err != nil {
			return nil, fmt.Errorf("psim: building shard %d: %w", i, err)
		}
		s.built = built
		res.Builts[i] = built
		for _, reg := range inbound {
			for _, l := range s.in {
				if l.channel == reg.ch {
					l.inj = newInjector(built.Sys.K, reg.ch, reg.q)
				}
			}
		}
	}

	e := &engine{shards: shards, horizon: horizon, chunk: chunk}
	e.wg.Add(n)
	for _, s := range shards {
		go e.drive(s)
	}
	e.wg.Wait()

	collect(res, shards)
	return res, nil
}

type engine struct {
	shards  []*shardRun
	horizon sim.Time
	chunk   sim.Time
	wg      sync.WaitGroup
	aborted atomic.Bool
}

// abort stops every driver at its next synchronization point (a kernel
// mid-run cannot be interrupted, exactly like the sequential engine).
func (e *engine) abort() {
	e.aborted.Store(true)
	for _, s := range e.shards {
		s.nudge()
	}
}

// finishLinks publishes the terminal promise: nothing more will ever arrive
// on this shard's outbound links. Any message still unpublished at exit
// carries a timestamp beyond the horizon, which no receiver simulates past.
func (s *shardRun) finishLinks() {
	for _, l := range s.out {
		l.promise.Store(int64(sim.TimeMax))
		l.dst.nudge()
	}
}

// drive is one shard's conservative simulation loop:
//
//  1. read the inbound bound B (min over inbound promises, acquire);
//  2. drain the rings into the injectors (ordered after the promise loads,
//     so every message with ts < B is visible before the kernel may need it);
//  3. run the kernel up to min(B, horizon), chunked for source-like shards;
//  4. advertise new outbound promises (release) and nudge the receivers;
//  5. block on the wake channel when neither the bound nor the inbox moved.
//
// Runs are inclusive of the bound: a message timestamped exactly B may be
// injected after the kernel already reached B, which is legal (the kernel
// processes newly scheduled work at the current instant) and at worst
// reorders same-instant delta activity across the shard boundary — the
// freedom sim.TimedPermuter explores anyway. Because a round runs to B
// inclusive, all future local sends start at or after B, so promising
// B + lookahead (bounded by in-flight transfer floors) is safe, strictly
// increases around any waiting cycle (lookahead is positive), and therefore
// cannot deadlock.
func (e *engine) drive(s *shardRun) {
	defer e.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("psim: shard %d: %v", s.idx, r)
			e.abort()
			s.finishLinks()
		}
	}()
	for {
		select {
		case <-s.wake:
		default:
		}
		if e.aborted.Load() {
			s.finishLinks()
			return
		}
		b := s.bound()
		fed := s.drain()

		limit := b
		if limit > e.horizon {
			limit = e.horizon
		}
		if len(s.out) > 0 {
			if next, ok := s.built.Sys.K.NextActivity(); ok {
				if c := sim.AddSat(next, e.chunk); c < limit {
					limit = c
				}
			}
		}
		if s.started && limit <= s.lastLimit && !fed {
			<-s.wake
			continue
		}

		rep, err := s.built.Sys.RunChecked(limit)
		s.started = true
		s.rep, s.lastErr = rep, err
		if err != nil && rep.Reason == sim.FinishPanic {
			s.err = err
			e.abort()
			s.finishLinks()
			return
		}
		// A mid-run local deadlock is not final: inbound messages may still
		// wake the blocked processes. Keep exchanging bounds; if nothing ever
		// arrives the null messages carry every shard past the horizon and
		// the aggregate reports the deadlock.
		s.lastLimit = limit
		if limit >= e.horizon {
			s.finishLinks()
			return
		}
		s.post(b)
	}
}

// post advertises this round's outbound promises. Future sends initiate no
// earlier than effNow = min(next local activity, inbound bound), and a send
// initiated at t publishes at t + transfer time ≥ t + lookahead; in-flight
// transfers are bounded by their floors.
func (s *shardRun) post(b sim.Time) {
	effNow := b
	if next, ok := s.built.Sys.K.NextActivity(); ok && next < effNow {
		effNow = next
	}
	if now := s.built.Sys.Now(); effNow < now {
		effNow = now
	}
	for _, l := range s.out {
		p := sim.AddSat(effNow, l.lookahead)
		if f, ok := l.minFloor(); ok && f < p {
			p = f
		}
		if p > sim.Time(l.promise.Load()) {
			l.promise.Store(int64(p))
			l.dst.nudge()
		}
	}
}

// collect folds the finished shards into the aggregate result, mirroring the
// sequential RunChecked contract: panic beats limit beats deadlock beats
// quiescent, a whole-model deadlock comes back as a *sim.SimError, and every
// kernel is shut down, failed or not. A shard's local deadlock only
// becomes the aggregate outcome when no shard reached the horizon — if any
// did, the run is a limit finish and the still-blocked tasks surface through
// the report's blocked-task warning, exactly as in a sequential run.
func collect(res *Result, shards []*shardRun) {
	var blocked []sim.BlockedProc
	var context []string
	anyLimit, anyStopped := false, false
	for _, s := range shards {
		sys := s.built.Sys
		if now := sys.Now(); now > res.End {
			res.End = now
		}
		res.Activations += sys.K.Activations()
		res.DeltaCycles += sys.K.DeltaCount()
		if s.err != nil {
			if res.Err == nil {
				res.Err = s.err
			}
			continue
		}
		switch s.rep.Reason {
		case sim.FinishLimit:
			anyLimit = true
		case sim.FinishStopped:
			anyStopped = true
		case sim.FinishDeadlock:
			if se, ok := s.lastErr.(*sim.SimError); ok {
				blocked = append(blocked, se.Blocked...)
				context = append(context, se.Context...)
			} else {
				blocked = append(blocked, s.rep.Blocked...)
			}
		}
	}
	switch {
	case res.Err != nil:
		res.Finish = sim.FinishPanic
	case anyLimit:
		res.Finish = sim.FinishLimit
	case anyStopped:
		res.Finish = sim.FinishStopped
	case len(blocked) > 0:
		res.Finish = sim.FinishDeadlock
		res.Err = &sim.SimError{At: res.End, Blocked: blocked, Context: context}
	default:
		res.Finish = sim.FinishQuiescent
	}
	for _, s := range shards {
		s.built.Shutdown(res.Err)
	}
}
