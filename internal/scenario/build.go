package scenario

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Built is an elaborated scenario: the runnable system plus name-indexed
// handles to every model object, for inspection after the run.
type Built struct {
	Desc *System
	Sys  *rtos.System

	Processors  map[string]*rtos.Processor
	Events      map[string]*comm.Event
	Queues      map[string]*comm.Queue[int]
	Shared      map[string]*comm.Shared[int]
	Constraints map[string]*rtos.Constraint
	IRQs        map[string]*rtos.IRQ
	Buses       map[string]*bus.Bus
	Channels    map[string]*bus.Channel[int]
	Servers     map[string]*rtos.Server
	Tasks       map[string]*rtos.Task
	Watchdogs   map[string]*rtos.Watchdog

	// traceCursors tracks each named duration trace's position; a trace has
	// one global cursor shared by all its execute_trace sites, advancing
	// deterministically with the simulation.
	traceCursors map[string]int

	// links routes the send and recv ops of every channel this build
	// elaborated.
	links map[string]*link
}

// link is the local end of a channel. A send charges the bus its usual
// contention and transfer time, then puts the value on queue or, on a
// channel cut by a shard filter (hooks set), sends it off the shard as a
// timestamped message; there the floor bracket (hold, then publish) keeps
// the engine's outbound promise below the publish instant while the
// transfer is in flight. A recv takes from queue: the channel's own, or the
// bare delivery queue the parallel engine's injector feeds.
type link struct {
	name  string
	bus   *bus.Bus
	size  int
	queue *comm.Queue[int]
	hooks *CrossHooks
}

func (x *link) hold(now sim.Time) int {
	return x.hooks.FloorHold(x.name, sim.AddSat(now, x.bus.TransferTime(x.size)))
}

func (x *link) publish(a comm.Actor, v, id int) {
	x.hooks.Publish(x.name, a.Name(), v)
	x.hooks.FloorRelease(x.name, id)
}

// CrossHooks connects a shard build to the parallel engine. The build calls
// Inbound once per inbound cross-shard channel during elaboration; the
// sender-side split-phase transfer calls FloorHold, then occupies the local
// bus for the usual transfer time, then Publish at the instant the message
// would have been deposited, then FloorRelease. The floor brackets let the
// engine bound its outbound promises by in-flight transfers.
type CrossHooks struct {
	// Publish hands a sent value to the engine; the message surfaces on the
	// receiving shard timestamped with the sending kernel's current time.
	Publish func(channel, sender string, value int)
	// FloorHold announces an in-flight send that will publish no earlier
	// than `earliest`; it returns a token for FloorRelease.
	FloorHold func(channel string, earliest sim.Time) int
	// FloorRelease retires a FloorHold token once its message is published.
	FloorRelease func(channel string, id int)
	// Inbound registers the local delivery queue of an inbound channel.
	Inbound func(channel string, q *comm.Queue[int])
}

// shardFilter restricts elaboration to one shard of a partition plan.
type shardFilter struct {
	procs, hardware                                                      map[string]bool
	events, queues, shared, constraints, servers, irqs, watchdogs, buses map[string]bool
	chanLocal, chanOut, chanIn                                           map[string]bool
	hooks                                                                *CrossHooks
}

// Build elaborates the description into a simulation-ready system.
func (s *System) Build() (*Built, error) { return s.build(nil) }

// BuildShard elaborates exactly one shard of a partition plan: the shard's
// processors, hardware tasks and the objects the plan assigns to it. Cross-
// shard channels elaborate as half-objects wired to the hooks. A one-group
// plan is not sharded at all: callers run it with Build.
func (s *System) BuildShard(plan *ShardPlan, shard int, hooks *CrossHooks) (*Built, error) {
	f := &shardFilter{
		procs:       map[string]bool{},
		hardware:    map[string]bool{},
		events:      map[string]bool{},
		queues:      map[string]bool{},
		shared:      map[string]bool{},
		constraints: map[string]bool{},
		servers:     map[string]bool{},
		irqs:        map[string]bool{},
		watchdogs:   map[string]bool{},
		buses:       map[string]bool{},
		chanLocal:   map[string]bool{},
		chanOut:     map[string]bool{},
		chanIn:      map[string]bool{},
		hooks:       hooks,
	}
	for _, name := range plan.Groups[shard].Processors {
		f.procs[name] = true
	}
	for _, name := range plan.Groups[shard].Hardware {
		f.hardware[name] = true
	}
	keep := func(dst map[string]bool, owners map[string]int) {
		for name, g := range owners {
			if g == shard {
				dst[name] = true
			}
		}
	}
	keep(f.events, plan.Events)
	keep(f.queues, plan.Queues)
	keep(f.shared, plan.Shared)
	keep(f.constraints, plan.Constraints)
	keep(f.servers, plan.Servers)
	keep(f.irqs, plan.IRQs)
	keep(f.watchdogs, plan.Watchdogs)
	keep(f.buses, plan.Buses)
	for name, route := range plan.Channels {
		switch {
		case route.From == shard && route.To == shard:
			f.chanLocal[name] = true
		case route.From == shard:
			f.chanOut[name] = true
		case route.To == shard:
			f.chanIn[name] = true
		}
	}
	return s.build(f)
}

func (s *System) build(f *shardFilter) (*Built, error) {
	b := &Built{
		Desc:         s,
		Sys:          rtos.NewSystem(),
		Processors:   map[string]*rtos.Processor{},
		Events:       map[string]*comm.Event{},
		Queues:       map[string]*comm.Queue[int]{},
		Shared:       map[string]*comm.Shared[int]{},
		Constraints:  map[string]*rtos.Constraint{},
		IRQs:         map[string]*rtos.IRQ{},
		Buses:        map[string]*bus.Bus{},
		Channels:     map[string]*bus.Channel[int]{},
		Servers:      map[string]*rtos.Server{},
		Tasks:        map[string]*rtos.Task{},
		Watchdogs:    map[string]*rtos.Watchdog{},
		traceCursors: map[string]int{},
	}
	for _, p := range s.Processors {
		if f != nil && !f.procs[p.Name] {
			continue
		}
		cfg := rtos.Config{NonPreemptive: p.NonPreemptive, Speed: p.Speed, Cores: p.Cores}
		if p.Engine == "threaded" {
			cfg.Engine = rtos.EngineThreaded
		}
		if p.Domain == "global" {
			cfg.Domain = rtos.DomainGlobal
		}
		switch p.Policy {
		case "", "priority":
			cfg.Policy = rtos.PriorityPreemptive{}
		case "fifo":
			cfg.Policy = rtos.FIFO{}
		case "rr":
			cfg.Policy = rtos.RoundRobin{Slice: p.Quantum.Time()}
		case "edf":
			cfg.Policy = rtos.EDF{}
		}
		ov := rtos.Overheads{
			ContextSave: rtos.Fixed(p.Overheads.ContextSave.Time()),
			ContextLoad: rtos.Fixed(p.Overheads.ContextLoad.Time()),
		}
		if p.Overheads.SchedulingPerReady > 0 {
			ov.Scheduling = rtos.PerReadyTask(p.Overheads.Scheduling.Time(), p.Overheads.SchedulingPerReady.Time())
		} else {
			ov.Scheduling = rtos.Fixed(p.Overheads.Scheduling.Time())
		}
		cfg.Overheads = ov
		b.Processors[p.Name] = b.Sys.NewProcessor(p.Name, cfg)
	}
	for _, e := range s.Events {
		if f != nil && !f.events[e.Name] {
			continue
		}
		pol := comm.Fugitive
		switch e.Policy {
		case "boolean":
			pol = comm.Boolean
		case "counter":
			pol = comm.Counter
		}
		b.Events[e.Name] = comm.NewEvent(b.Sys.Rec, e.Name, pol)
	}
	for _, q := range s.Queues {
		if f != nil && !f.queues[q.Name] {
			continue
		}
		b.Queues[q.Name] = comm.NewQueue[int](b.Sys.Rec, q.Name, q.Capacity)
	}
	for _, v := range s.Shared {
		if f != nil && !f.shared[v.Name] {
			continue
		}
		if v.Inherit {
			b.Shared[v.Name] = comm.NewInheritShared(b.Sys.Rec, v.Name, v.Initial)
		} else {
			b.Shared[v.Name] = comm.NewShared(b.Sys.Rec, v.Name, v.Initial)
		}
	}
	for _, c := range s.Constraints {
		if f != nil && !f.constraints[c.Name] {
			continue
		}
		b.Constraints[c.Name] = b.Sys.Constraints.NewLatency(c.Name, c.Limit.Time())
	}

	for _, def := range s.Buses {
		if f != nil && !f.buses[def.Name] {
			continue
		}
		b.Buses[def.Name] = bus.New(b.Sys.Rec, def.Name, bus.Config{
			PerByte:     def.PerByte.Time(),
			Arbitration: def.Arbitration.Time(),
		})
	}
	if len(s.Channels) > 0 {
		b.links = make(map[string]*link, len(s.Channels))
	}
	for _, def := range s.Channels {
		x := &link{name: def.Name, bus: b.Buses[def.Bus], size: max(1, def.MessageBytes)}
		switch {
		case f != nil && f.chanLocal[def.Name] && x.bus == nil:
			// A senderless channel routes to its receivers' shard while its
			// (never contended) bus elaborated elsewhere. A bare queue models
			// it exactly: receivers block, nothing ever sends.
			x.queue = comm.NewQueue[int](b.Sys.Rec, def.Name, def.Capacity)
		case f == nil || f.chanLocal[def.Name]:
			ch := bus.NewChannel(x.bus, def.Name, def.Capacity, func(int) int { return x.size })
			b.Channels[def.Name] = ch
			x.queue = ch.Queue()
		case f.chanOut[def.Name]:
			x.hooks = f.hooks
		case f.chanIn[def.Name]:
			// Receiver half: a bare delivery queue fed by the engine's
			// injector. Receivers block on it exactly as on a local channel.
			x.queue = comm.NewQueue[int](b.Sys.Rec, def.Name, def.Capacity)
			f.hooks.Inbound(def.Name, x.queue)
		default:
			continue
		}
		b.links[def.Name] = x
	}
	for _, def := range s.Servers {
		if f != nil && !f.servers[def.Name] {
			continue
		}
		cfg := rtos.ServerConfig{
			Priority: def.Priority,
			Period:   def.Period.Time(),
			Budget:   def.Budget.Time(),
			QueueCap: def.QueueCap,
		}
		cpu := b.Processors[def.Processor]
		switch def.Kind {
		case "deferrable":
			b.Servers[def.Name] = cpu.NewDeferrableServer(def.Name, cfg)
		case "sporadic":
			b.Servers[def.Name] = cpu.NewSporadicServer(def.Name, cfg)
		default:
			b.Servers[def.Name] = cpu.NewPollingServer(def.Name, cfg)
		}
	}
	for _, q := range s.IRQs {
		if f != nil && !f.irqs[q.Name] {
			continue
		}
		q := q
		ctrl := b.Processors[q.Processor].Interrupts()
		b.IRQs[q.Name] = ctrl.NewIRQ(q.Name, q.Priority, q.Latency.Time(), func(c *rtos.ISRCtx) {
			b.runOps(isrActor(c), q.Body)
		})
	}

	for _, t := range s.Tasks {
		if f != nil && !f.procs[t.Processor] {
			continue
		}
		t := t
		cpu := b.Processors[t.Processor]
		cfg := rtos.TaskConfig{
			Priority: t.Priority,
			Affinity: t.Affinity,
			StartAt:  t.StartAt.Time(),
			Period:   t.Period.Time(),
			Deadline: t.Deadline.Time(),
			Jitter:   t.Jitter.Time(),
		}
		switch t.OnMiss {
		case "abort":
			cfg.OnMiss = rtos.MissAbortJob
		case "skip_next":
			cfg.OnMiss = rtos.MissSkipNextRelease
		case "restart":
			cfg.OnMiss = rtos.MissRestartTask
		}
		if t.Engine != "goroutine" {
			pb := rtos.BuildProgram()
			if t.Period > 0 {
				b.compileOps(pb, t.Body)
				b.Tasks[t.Name] = cpu.NewPeriodicContTask(t.Name, cfg, pb.Build())
				continue
			}
			if t.Loop {
				pb.Loop(-1)
			} else {
				pb.Loop(max(1, t.Repeat))
			}
			b.compileOps(pb, t.Body)
			pb.End()
			b.Tasks[t.Name] = cpu.NewContTask(t.Name, cfg, pb.Build())
			continue
		}
		if t.Period > 0 {
			b.Tasks[t.Name] = cpu.NewPeriodicTask(t.Name, cfg, func(c *rtos.TaskCtx, cycle int) {
				b.runOps(swOps(c), t.Body)
			})
			continue
		}
		b.Tasks[t.Name] = cpu.NewTask(t.Name, cfg, func(c *rtos.TaskCtx) {
			b.runRepeated(swOps(c), t.Body, t.Loop, t.Repeat)
		})
	}
	for _, h := range s.Hardware {
		if f != nil && !f.hardware[h.Name] {
			continue
		}
		h := h
		b.Sys.NewHWTask(h.Name, rtos.HWConfig{Priority: h.Priority, StartAt: h.StartAt.Time()}, func(c *rtos.HWCtx) {
			b.runRepeated(hwOps(c), h.Body, h.Loop, h.Repeat)
		})
	}

	for _, w := range s.Watchdogs {
		if f != nil && !f.watchdogs[w.Name] {
			continue
		}
		b.Watchdogs[w.Name] = b.Processors[w.Processor].NewWatchdog(
			w.Name, w.Timeout.Time(), b.Tasks[w.Task]) // Task "" maps to nil
	}
	for _, fd := range s.Faults {
		// Faults follow their target: a shard build skips injections whose
		// task or IRQ lives elsewhere.
		switch fd.Kind {
		case "wcet_overrun", "crash", "hang":
			if f != nil && b.Tasks[fd.Task] == nil {
				continue
			}
		default:
			if f != nil && b.IRQs[fd.IRQ] == nil {
				continue
			}
		}
		switch fd.Kind {
		case "wcet_overrun":
			b.Tasks[fd.Task].InjectWCETOverrun(rtos.WCETOverrun{
				Factor:      fd.Factor,
				Extra:       fd.Extra.Time(),
				Probability: fd.Probability,
				Seed:        fd.Seed,
				After:       fd.After.Time(),
				Until:       fd.Until.Time(),
			})
		case "crash":
			b.Tasks[fd.Task].InjectCrashAt(fd.At.Time())
		case "hang":
			b.Tasks[fd.Task].InjectHangAt(fd.At.Time(), fd.For.Time())
		case "irq_drop":
			b.IRQs[fd.IRQ].InjectDrop(fd.Probability, fd.Seed)
		case "irq_latency":
			b.IRQs[fd.IRQ].InjectLatencySpike(fd.Extra.Time(), fd.Probability, fd.Seed)
		}
	}
	return b, nil
}

// Run simulates the built scenario to its horizon (or to event starvation)
// and shuts the kernel down.
func (b *Built) Run() {
	if h := b.Desc.Horizon.Time(); h > 0 {
		b.Sys.RunUntil(h)
		b.Sys.Shutdown()
		return
	}
	b.Sys.Run()
}

// RunChecked simulates the built scenario to its horizon (or to event
// starvation) with failure diagnosis: model panics, deadlock and starvation
// come back as a structured *sim.SimError instead of a panic or a silent
// stop. On a clean finish the kernel is shut down and the report returned.
func (b *Built) RunChecked() (sim.Report, error) {
	limit := sim.TimeMax
	if h := b.Desc.Horizon.Time(); h > 0 {
		limit = h
	}
	rep, err := b.Sys.RunChecked(limit)
	if err == nil {
		b.Sys.Shutdown()
	}
	return rep, err
}

// opActor abstracts the software/hardware task APIs for the interpreter.
type opActor struct {
	actor     comm.Actor
	execute   func(sim.Time)
	delay     func(sim.Time)
	noPreempt func(bool)
	setPrio   func(int)
	yield     func()
}

func swOps(c *rtos.TaskCtx) opActor {
	return opActor{
		actor:   c,
		execute: c.Execute,
		delay:   c.Delay,
		noPreempt: func(on bool) {
			if on {
				c.DisablePreemption()
			} else {
				c.EnablePreemption()
			}
		},
		setPrio: c.SetPriority,
		yield:   c.Yield,
	}
}

func hwOps(c *rtos.HWCtx) opActor {
	return opActor{actor: c, delay: c.Wait}
}

func isrActor(c *rtos.ISRCtx) opActor {
	return opActor{actor: c, execute: c.Execute}
}

// runRepeated runs a goroutine body forever for a loop task, else repeat
// times (at least once).
func (b *Built) runRepeated(a opActor, ops []Op, loop bool, repeat int) {
	for i := 0; loop || i < max(1, repeat); i++ {
		b.runOps(a, ops)
	}
}

// runOps interprets a behaviour script. Validation guarantees the ops are
// well-formed for the actor kind.
func (b *Built) runOps(a opActor, ops []Op) {
	for _, op := range ops {
		switch op.Op {
		case "execute":
			a.execute(op.For.Time())
		case "execute_trace":
			tr := b.Desc.Traces[op.Trace]
			i := b.traceCursors[op.Trace]
			b.traceCursors[op.Trace] = (i + 1) % len(tr)
			a.execute(tr[i].Time())
		case "delay":
			a.delay(op.For.Time())
		case "wait":
			b.Events[op.Event].Wait(a.actor)
		case "signal":
			b.Events[op.Event].Signal(a.actor)
		case "put":
			b.Queues[op.Queue].Put(a.actor, op.Value)
		case "tryput":
			b.Queues[op.Queue].TryPut(a.actor, op.Value)
		case "get":
			b.Queues[op.Queue].Get(a.actor)
		case "raise":
			b.IRQs[op.IRQ].Raise()
		case "send":
			x := b.links[op.Channel]
			if x.hooks == nil {
				x.bus.Transfer(a.actor, x.size)
				x.queue.Put(a.actor, op.Value)
				break
			}
			id := x.hold(b.Sys.Now())
			x.bus.Transfer(a.actor, x.size)
			x.publish(a.actor, op.Value, id)
		case "recv":
			b.links[op.Channel].queue.Get(a.actor)
		case "submit":
			job := rtos.AperiodicJob{Work: op.For.Time()}
			if op.Constraint != "" {
				mon := b.Constraints[op.Constraint]
				job.Done = mon.Stop
			}
			b.Servers[op.Server].Submit(job)
		case "lock":
			b.Shared[op.Shared].Lock(a.actor)
		case "unlock":
			b.Shared[op.Shared].Unlock(a.actor)
		case "read":
			b.Shared[op.Shared].Read(a.actor)
		case "write":
			b.Shared[op.Shared].Write(a.actor, op.Value)
		case "nopreempt_begin":
			a.noPreempt(true)
		case "nopreempt_end":
			a.noPreempt(false)
		case "setprio":
			a.setPrio(op.Value)
		case "yield":
			a.yield()
		case "lat_start":
			b.Constraints[op.Constraint].Start()
		case "lat_stop":
			b.Constraints[op.Constraint].Stop()
		case "kick":
			b.Watchdogs[op.Watchdog].Kick()
		case "repeat":
			for i := 0; i < op.Count; i++ {
				b.runOps(a, op.Body)
			}
		default:
			panic(fmt.Sprintf("scenario: unvalidated op %q", op.Op))
		}
	}
}

// compileOps translates a behaviour script into continuation program ops,
// mirroring runOps one for one: blocking ops become yield ops, non-blocking
// ops become inline steps, repeat becomes a counted loop. Every software-task
// op has a compiled form.
func (b *Built) compileOps(pb *rtos.ProgramBuilder, ops []Op) {
	for _, op := range ops {
		op := op
		switch op.Op {
		case "execute":
			pb.Compute(op.For.Time())
		case "execute_trace":
			pb.ComputeFn(func(c *rtos.TaskCtx) sim.Time {
				tr := b.Desc.Traces[op.Trace]
				i := b.traceCursors[op.Trace]
				b.traceCursors[op.Trace] = (i + 1) % len(tr)
				return tr[i].Time()
			})
		case "delay":
			pb.WaitFor(op.For.Time())
		case "wait":
			pb.WaitOn(b.Events[op.Event])
		case "signal":
			pb.Signal(b.Events[op.Event])
		case "put":
			pb.Op(rtos.PutMsg(b.Queues[op.Queue], op.Value))
		case "tryput":
			pb.Do(func(c *rtos.TaskCtx) { b.Queues[op.Queue].TryPut(c, op.Value) })
		case "get":
			pb.Op(rtos.GetMsg(b.Queues[op.Queue], nil))
		case "raise":
			pb.Do(func(c *rtos.TaskCtx) { b.IRQs[op.IRQ].Raise() })
		case "send":
			// Bus.Transfer as program ops: arbitrate, hold the bus for the
			// transfer time, book it and release the arbiter. On a cut
			// channel the bracket token lives in the closure: a task runs one
			// instance of a send op at a time.
			x := b.links[op.Channel]
			var id int
			if x.hooks != nil {
				pb.Do(func(c *rtos.TaskCtx) { id = x.hold(c.Now()) })
			}
			pb.Lock(x.bus.Arbiter())
			pb.Do(func(*rtos.TaskCtx) { x.bus.BeginTransfer(x.size) })
			if d := x.bus.TransferTime(x.size); d > 0 {
				pb.WaitFor(d)
			}
			pb.Do(func(c *rtos.TaskCtx) { x.bus.EndTransfer(c, x.size) })
			if x.hooks == nil {
				pb.Op(rtos.PutMsg(x.queue, op.Value))
			} else {
				pb.Do(func(c *rtos.TaskCtx) { x.publish(c, op.Value, id) })
			}
		case "recv":
			pb.Op(rtos.GetMsg(b.links[op.Channel].queue, nil))
		case "submit":
			pb.Do(func(c *rtos.TaskCtx) {
				job := rtos.AperiodicJob{Work: op.For.Time()}
				if op.Constraint != "" {
					mon := b.Constraints[op.Constraint]
					job.Done = mon.Stop
				}
				b.Servers[op.Server].Submit(job)
			})
		case "lock":
			pb.Lock(b.Shared[op.Shared].Mutex())
		case "unlock":
			pb.Do(func(c *rtos.TaskCtx) { b.Shared[op.Shared].Unlock(c) })
		case "read":
			// Shared.Read is lock + get + unlock; only the lock can block.
			pb.Lock(b.Shared[op.Shared].Mutex())
			pb.Do(func(c *rtos.TaskCtx) {
				sv := b.Shared[op.Shared]
				sv.Get(c)
				sv.Unlock(c)
			})
		case "write":
			pb.Lock(b.Shared[op.Shared].Mutex())
			pb.Do(func(c *rtos.TaskCtx) {
				sv := b.Shared[op.Shared]
				sv.Set(c, op.Value)
				sv.Unlock(c)
			})
		case "nopreempt_begin":
			pb.Do(func(c *rtos.TaskCtx) { c.DisablePreemption() })
		case "nopreempt_end":
			pb.Do(func(c *rtos.TaskCtx) { c.EnablePreemption() })
		case "setprio":
			pb.Do(func(c *rtos.TaskCtx) { c.SetPriority(op.Value) })
		case "yield":
			pb.Yield()
		case "lat_start":
			pb.Do(func(c *rtos.TaskCtx) { b.Constraints[op.Constraint].Start() })
		case "lat_stop":
			pb.Do(func(c *rtos.TaskCtx) { b.Constraints[op.Constraint].Stop() })
		case "kick":
			pb.Do(func(c *rtos.TaskCtx) { b.Watchdogs[op.Watchdog].Kick() })
		case "repeat":
			pb.Loop(op.Count)
			b.compileOps(pb, op.Body)
			pb.End()
		default:
			panic(fmt.Sprintf("scenario: unvalidated op %q", op.Op))
		}
	}
}
