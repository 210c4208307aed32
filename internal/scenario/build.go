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

// shardFilter restricts elaboration to one shard of a partition plan: its
// processors and hardware tasks, and the objects the plan assigns to it.
type shardFilter struct {
	plan            *ShardPlan
	shard           int
	procs, hardware map[string]bool
	hooks           *CrossHooks
}

// Build elaborates the description into a simulation-ready system.
func (s *System) Build() (*Built, error) { return s.build(nil) }

// BuildShard elaborates exactly one shard of a partition plan: the shard's
// processors, hardware tasks and the objects the plan assigns to it. Cross-
// shard channels elaborate as half-objects wired to the hooks. A one-group
// plan is not sharded at all: callers run it with Build.
func (s *System) BuildShard(plan *ShardPlan, shard int, hooks *CrossHooks) (*Built, error) {
	f := &shardFilter{
		plan:     plan,
		shard:    shard,
		procs:    map[string]bool{},
		hardware: map[string]bool{},
		hooks:    hooks,
	}
	for _, name := range plan.Groups[shard].Processors {
		f.procs[name] = true
	}
	for _, name := range plan.Groups[shard].Hardware {
		f.hardware[name] = true
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
		if f != nil && f.plan.Events[e.Name] != f.shard {
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
		if f != nil && f.plan.Queues[q.Name] != f.shard {
			continue
		}
		b.Queues[q.Name] = comm.NewQueue[int](b.Sys.Rec, q.Name, q.Capacity)
	}
	for _, v := range s.Shared {
		if f != nil && f.plan.Shared[v.Name] != f.shard {
			continue
		}
		if v.Inherit {
			b.Shared[v.Name] = comm.NewInheritShared(b.Sys.Rec, v.Name, v.Initial)
		} else {
			b.Shared[v.Name] = comm.NewShared(b.Sys.Rec, v.Name, v.Initial)
		}
	}
	for _, c := range s.Constraints {
		if f != nil && f.plan.Constraints[c.Name] != f.shard {
			continue
		}
		b.Constraints[c.Name] = b.Sys.Constraints.NewLatency(c.Name, c.Limit.Time())
	}

	for _, def := range s.Buses {
		if f != nil && f.plan.Buses[def.Name] != f.shard {
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
		local, out, in := f == nil, false, false
		if f != nil {
			r := f.plan.Channels[def.Name]
			out, in = r.From == f.shard, r.To == f.shard
			local = out && in
		}
		switch {
		case f != nil && local && x.bus == nil:
			// A senderless channel routes to its receivers' shard while its
			// (never contended) bus elaborated elsewhere. A bare queue models
			// it exactly: receivers block, nothing ever sends.
			x.queue = comm.NewQueue[int](b.Sys.Rec, def.Name, def.Capacity)
		case local:
			ch := bus.NewChannel(x.bus, def.Name, def.Capacity, func(int) int { return x.size })
			b.Channels[def.Name] = ch
			x.queue = ch.Queue()
		case out:
			x.hooks = f.hooks
		case in:
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
		if f != nil && f.plan.Servers[def.Name] != f.shard {
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
		if f != nil && f.plan.IRQs[q.Name] != f.shard {
			continue
		}
		run := goBody(b, q.Body, false, 0)
		ctrl := b.Processors[q.Processor].Interrupts()
		b.IRQs[q.Name] = ctrl.NewIRQ(q.Name, q.Priority, q.Latency.Time(), func(c *rtos.ISRCtx) { run(c) })
	}

	for _, t := range s.Tasks {
		if f != nil && !f.procs[t.Processor] {
			continue
		}
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
		switch {
		case t.Engine != "goroutine" && t.Period > 0:
			b.Tasks[t.Name] = cpu.NewPeriodicContTask(t.Name, cfg, b.program(t.Body, t.Loop, t.Repeat))
		case t.Engine != "goroutine":
			b.Tasks[t.Name] = cpu.NewContTask(t.Name, cfg, b.program(t.Body, t.Loop, t.Repeat))
		case t.Period > 0:
			run := goBody(b, t.Body, t.Loop, t.Repeat)
			b.Tasks[t.Name] = cpu.NewPeriodicTask(t.Name, cfg, func(c *rtos.TaskCtx, _ int) { run(c) })
		default:
			run := goBody(b, t.Body, t.Loop, t.Repeat)
			b.Tasks[t.Name] = cpu.NewTask(t.Name, cfg, func(c *rtos.TaskCtx) { run(c) })
		}
	}
	for _, h := range s.Hardware {
		if f != nil && !f.hardware[h.Name] {
			continue
		}
		run := goBody(b, h.Body, h.Loop, h.Repeat)
		b.Sys.NewHWTask(h.Name, rtos.HWConfig{Priority: h.Priority, StartAt: h.StartAt.Time()}, func(c *rtos.HWCtx) { run(c) })
	}

	for _, w := range s.Watchdogs {
		if f != nil && f.plan.Watchdogs[w.Name] != f.shard {
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
// stop. Either way the kernel is shut down before it returns.
func (b *Built) RunChecked() (sim.Report, error) {
	limit := sim.TimeMax
	if h := b.Desc.Horizon.Time(); h > 0 {
		limit = h
	}
	rep, err := b.Sys.RunChecked(limit)
	b.Shutdown(err)
	return rep, err
}

// Shutdown unwinds the process goroutines still parked when a run is over.
// After a failed run (err != nil) a secondary panic from the unwind is
// swallowed: the failure is already reported.
func (b *Built) Shutdown(err error) {
	if err != nil {
		defer func() { _ = recover() }()
	}
	b.Sys.Shutdown()
}

// program compiles a body for every kind of actor: run forever for a loop
// task, else repeat times, at least once. A periodic task's Program is one
// cycle (validation rejects repeat beside loop or period), and so is an
// ISR's, which leaves both unset.
func (b *Built) program(body []Op, loop bool, repeat int) *rtos.Program {
	pb := rtos.BuildProgram()
	if !loop && repeat <= 1 {
		b.compileOps(pb, body)
		return pb.Build()
	}
	if loop {
		pb.Loop(-1)
	} else {
		pb.Loop(repeat)
	}
	b.compileOps(pb, body)
	return pb.End().Build()
}

// goBody returns what a goroutine-form actor runs: a software task with
// "engine": "goroutine", a hardware task or an ISR. It is the body's
// compiled Program, run as blocking calls on the actor's own thread. It is a
// variable only so the package's tests can build these bodies on their
// op-by-op reference interpreter instead.
var goBody = func(b *Built, body []Op, loop bool, repeat int) func(comm.Actor) {
	return b.program(body, loop, repeat).Run
}

// compileOps translates a behaviour script into program ops, the one place a
// scenario op becomes simulator calls: blocking ops become yield ops,
// non-blocking ops become inline steps, repeat becomes a counted loop. The
// continuation engine resumes the Program and Program.Run makes the same
// calls on a goroutine task, hardware task or ISR. Validation guarantees the
// ops are well-formed for the actor kind.
func (b *Built) compileOps(pb *rtos.ProgramBuilder, ops []Op) {
	for _, op := range ops {
		switch op.Op {
		case "execute":
			pb.Compute(op.For.Time())
		case "execute_trace":
			pb.ComputeAct(func(comm.Actor) sim.Time {
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
			q := b.Queues[op.Queue]
			pb.Act(func(a comm.Actor) { q.TryPut(a, op.Value) })
		case "get":
			pb.Op(rtos.GetMsg(b.Queues[op.Queue], nil))
		case "raise":
			irq := b.IRQs[op.IRQ]
			pb.Act(func(comm.Actor) { irq.Raise() })
		case "send":
			// Bus.Transfer as program ops: arbitrate, hold the bus for the
			// transfer time, book it and release the arbiter. On a cut
			// channel the bracket token lives in the closure: an actor runs
			// one instance of a send op at a time.
			x := b.links[op.Channel]
			var id int
			if x.hooks != nil {
				pb.Act(func(comm.Actor) { id = x.hold(b.Sys.Now()) })
			}
			pb.Lock(x.bus.Arbiter())
			pb.Act(func(comm.Actor) { x.bus.BeginTransfer(x.size) })
			if d := x.bus.TransferTime(x.size); d > 0 {
				pb.WaitFor(d)
			}
			pb.Act(func(a comm.Actor) { x.bus.EndTransfer(a, x.size) })
			if x.hooks == nil {
				pb.Op(rtos.PutMsg(x.queue, op.Value))
			} else {
				pb.Act(func(a comm.Actor) { x.publish(a, op.Value, id) })
			}
		case "recv":
			pb.Op(rtos.GetMsg(b.links[op.Channel].queue, nil))
		case "submit":
			job := rtos.AperiodicJob{Work: op.For.Time()}
			if op.Constraint != "" {
				job.Done = b.Constraints[op.Constraint].Stop
			}
			srv := b.Servers[op.Server]
			pb.Act(func(comm.Actor) { srv.Submit(job) })
		case "lock":
			pb.Lock(b.Shared[op.Shared].Mutex())
		case "unlock":
			pb.Act(b.Shared[op.Shared].Unlock)
		case "read":
			// Shared.Read is lock + get + unlock; only the lock can block.
			sv := b.Shared[op.Shared]
			pb.Lock(sv.Mutex())
			pb.Act(func(a comm.Actor) {
				sv.Get(a)
				sv.Unlock(a)
			})
		case "write":
			sv := b.Shared[op.Shared]
			pb.Lock(sv.Mutex())
			pb.Act(func(a comm.Actor) {
				sv.Set(a, op.Value)
				sv.Unlock(a)
			})
		case "nopreempt_begin":
			pb.Act(func(a comm.Actor) { a.(*rtos.TaskCtx).DisablePreemption() })
		case "nopreempt_end":
			pb.Act(func(a comm.Actor) { a.(*rtos.TaskCtx).EnablePreemption() })
		case "setprio":
			pb.Act(func(a comm.Actor) { a.(*rtos.TaskCtx).SetPriority(op.Value) })
		case "yield":
			pb.Yield()
		case "lat_start":
			pb.Act(func(comm.Actor) { b.Constraints[op.Constraint].Start() })
		case "lat_stop":
			pb.Act(func(comm.Actor) { b.Constraints[op.Constraint].Stop() })
		case "kick":
			pb.Act(func(comm.Actor) { b.Watchdogs[op.Watchdog].Kick() })
		case "repeat":
			pb.Loop(op.Count)
			b.compileOps(pb, op.Body)
			pb.End()
		default:
			panic(fmt.Sprintf("scenario: unvalidated op %q", op.Op))
		}
	}
}
