package rtos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/sim"
	"repro/internal/trace"
)

// EngineKind selects one of the paper's two RTOS model implementations.
type EngineKind uint8

const (
	// EngineProcedural integrates the RTOS behaviour into the task state
	// transitions as procedure calls (paper section 4.2). It is the default:
	// the paper selects it for simulation efficiency because the only kernel
	// thread switches are those of the application tasks themselves.
	EngineProcedural EngineKind = iota
	// EngineThreaded models the RTOS with a dedicated scheduler thread
	// (paper section 4.1). Functionally identical, but every scheduling
	// action costs two extra kernel thread switches.
	EngineThreaded
)

func (k EngineKind) String() string {
	switch k {
	case EngineProcedural:
		return "procedural"
	case EngineThreaded:
		return "threaded"
	}
	return "invalid"
}

// engine is the internal contract shared by the two implementations. The
// entry points carry the names the paper gives the RTOS primitives.
type engine interface {
	// taskIsReady makes t ready. Safe from any simulation context (another
	// task, a hardware process, a sim.Method); never consumes the caller's
	// simulated time.
	taskIsReady(t *Task)
	// taskIsBlocked is called on t's own thread when it leaves the Running
	// state for s (Waiting or WaitingResource). When it returns the switch
	// has been initiated; the caller then parks in awaitDispatch.
	taskIsBlocked(t *Task, s trace.TaskState)
	// taskYield is called on t's own thread to give up the processor while
	// staying ready (preemption or voluntary yield). It returns once the
	// task is running again.
	taskYield(t *Task)
	// taskFinished is called on t's own thread when its behaviour returns.
	taskFinished(t *Task)
	// reevaluate re-examines the scheduling decision after a priority,
	// deadline or preemption-mode change.
	reevaluate()
	// switchOutCont hands the outgoing half of a continuation task's context
	// switch to the engine. It returns true when the engine performs it on a
	// thread of its own (the threaded engine's per-core RTOS thread); false
	// means the caller's driver must replay it as a strand microprogram (the
	// procedural engine, which would have run it on the task's own thread).
	switchOutCont(c *core, t *Task) bool
	// start performs engine elaboration (spawning the RTOS thread).
	start()
}

// Config carries a Processor's RTOS parameters.
type Config struct {
	// Engine selects the model implementation; the default is
	// EngineProcedural.
	Engine EngineKind
	// Policy is the scheduling policy; the default is PriorityPreemptive.
	Policy Policy
	// NonPreemptive starts the processor in non-preemptive mode (the mode
	// can be changed during the simulation with SetPreemptive).
	NonPreemptive bool
	// Overheads are the three RTOS overhead parameters; the zero value
	// models an ideal RTOS with no overhead.
	Overheads Overheads
	// Speed scales the processor's execution rate relative to the reference
	// processor the task durations were annotated for: Execute(d) consumes
	// d/Speed of simulated time. Zero means 1.0. This is the "effect of
	// processor change" axis of the paper's conclusion, complementing the
	// context-switch durations.
	Speed float64
	// Cores is the number of symmetric cores the RTOS schedules; zero means
	// one, which reproduces the paper's single-CPU model exactly.
	Cores int
	// Domain selects how a multi-core processor distributes its tasks:
	// DomainPartitioned (the default; per-task core pinning via
	// TaskConfig.Affinity) or DomainGlobal (one shared ready queue with task
	// migration). Ignored with one core, where both domains coincide.
	Domain SchedDomain
}

// Processor models a CPU running an RTOS that serializes a set of tasks.
type Processor struct {
	sys     *System
	k       *sim.Kernel
	rec     *trace.Recorder
	name    string
	recName trace.Name // name interned in rec

	policy     Policy
	preemptive bool
	overheads  Overheads
	engineKind EngineKind
	eng        engine
	speed      float64
	domain     SchedDomain

	tasks []*Task

	// cores are the execution units (schedcore.go); the slice is sized at
	// construction and never reallocated, so &cores[i] pointers are stable.
	cores []core
	// queues are the ready queues: one per core under DomainPartitioned, a
	// single shared one under DomainGlobal.
	queues []readyQueue

	// ordered is the policy's incremental-order view, nil for custom policies
	// without a built-in preference order. When set, each queue caches its
	// argmin under the order (see readyQueue).
	ordered orderedPolicy

	readySeqCtr uint64

	// dispatches, preemptions and migrations count across all cores. They
	// are kept here rather than read back from met: the registry merges
	// counters with equal labels, and two processors may share a name.
	dispatches  uint64
	preemptions uint64
	migrations  uint64

	quantum sim.Time

	irqCtrl *InterruptController

	// invTrack enables priority-inversion accounting (inversion.go).
	invTrack bool

	// met are the processor's observability instruments (metrics.go),
	// registered at construction; nil-safe when the system has no registry.
	met procMetrics
}

// NewProcessor creates a processor on the system with the given RTOS
// configuration. Processors must be created before the simulation runs.
func (s *System) NewProcessor(name string, cfg Config) *Processor {
	cpu := &Processor{
		sys:        s,
		k:          s.K,
		rec:        s.Rec,
		name:       name,
		recName:    s.Rec.Intern(name),
		policy:     cfg.Policy,
		preemptive: !cfg.NonPreemptive,
		overheads:  cfg.Overheads,
		engineKind: cfg.Engine,
		speed:      cfg.Speed,
		domain:     cfg.Domain,
	}
	if cpu.policy == nil {
		cpu.policy = PriorityPreemptive{}
	}
	if cpu.speed == 0 {
		cpu.speed = 1.0
	}
	if cpu.speed < 0 {
		panic("rtos: processor speed must be positive")
	}
	if cfg.Cores < 0 {
		panic("rtos: processor core count must be positive")
	}
	if cpu.domain != DomainPartitioned && cpu.domain != DomainGlobal {
		panic(fmt.Sprintf("rtos: unknown scheduling domain %d", cfg.Domain))
	}
	nCores := cfg.Cores
	if nCores == 0 {
		nCores = 1
	}
	cpu.cores = make([]core, nCores)
	for i := range cpu.cores {
		cpu.cores[i].id = i
	}
	nQueues := nCores
	if cpu.domain == DomainGlobal {
		nQueues = 1
	}
	cpu.queues = make([]readyQueue, nQueues)
	cpu.ordered, _ = cpu.policy.(orderedPolicy)
	if qp, ok := cpu.policy.(QuantumPolicy); ok {
		cpu.quantum = qp.Quantum()
		if cpu.quantum <= 0 {
			panic("rtos: quantum policy with non-positive quantum")
		}
	}
	cpu.registerMetrics(s.Metrics)
	switch cfg.Engine {
	case EngineProcedural:
		cpu.eng = &proceduralEngine{cpu: cpu}
	case EngineThreaded:
		cpu.eng = newThreadedEngine(cpu)
	default:
		panic(fmt.Sprintf("rtos: unknown engine kind %d", cfg.Engine))
	}
	cpu.eng.start()
	s.cpus = append(s.cpus, cpu)
	return cpu
}

// Name returns the processor name.
func (cpu *Processor) Name() string { return cpu.name }

// PolicyName returns the active scheduling policy's name.
func (cpu *Processor) PolicyName() string { return cpu.policy.Name() }

// Engine returns which model implementation the processor uses.
func (cpu *Processor) Engine() EngineKind { return cpu.engineKind }

// Preemptive reports whether the processor is in preemptive mode.
func (cpu *Processor) Preemptive() bool { return cpu.preemptive }

// Speed returns the processor's execution-rate factor.
func (cpu *Processor) Speed() float64 { return cpu.speed }

// scaleExec converts an annotated execution duration into this processor's
// simulated time.
func (cpu *Processor) scaleExec(d sim.Time) sim.Time {
	if cpu.speed == 1.0 {
		return d
	}
	return d.Scale(1 / cpu.speed)
}

// SetPreemptive switches the preemptive/non-preemptive mode at run time
// (paper section 3.1). Enabling preemption re-evaluates the scheduling
// decision immediately.
func (cpu *Processor) SetPreemptive(on bool) {
	cpu.preemptive = on
	if on {
		cpu.eng.reevaluate()
	}
}

// Tasks returns the processor's tasks in creation order.
func (cpu *Processor) Tasks() []*Task { return cpu.tasks }

// Running returns the task running on core 0 (the only core of a single-core
// processor), nil when idle or switching.
func (cpu *Processor) Running() *Task { return cpu.cores[0].running }

// Cores returns the processor's core count.
func (cpu *Processor) Cores() int { return len(cpu.cores) }

// Domain returns the processor's scheduling domain.
func (cpu *Processor) Domain() SchedDomain { return cpu.domain }

// ReadyCount returns the current number of ready tasks across all queues.
func (cpu *Processor) ReadyCount() int {
	n := 0
	for i := range cpu.queues {
		n += len(cpu.queues[i].tasks)
	}
	return n
}

// Dispatches returns the total number of task elections performed across all
// cores.
func (cpu *Processor) Dispatches() uint64 { return cpu.dispatches }

// Preemptions returns the total number of preemptions performed across all
// cores.
func (cpu *Processor) Preemptions() uint64 { return cpu.preemptions }

// Migrations returns how many dispatches moved a task to a different core
// than its previous one (always zero under DomainPartitioned).
func (cpu *Processor) Migrations() uint64 { return cpu.migrations }

// NewTask creates a task on the processor. The behaviour function runs once;
// write a loop inside it (or use NewPeriodicTask) for cyclic tasks.
func (cpu *Processor) NewTask(name string, cfg TaskConfig, fn func(*TaskCtx)) *Task {
	if fn == nil {
		panic("rtos: NewTask with nil behaviour")
	}
	t := cpu.newTask(name, cfg)
	t.fn = fn
	t.proc = cpu.k.Spawn(name, t.threadBody)
	return t
}

// NewPeriodicTask creates a task released every cfg.Period (first release at
// cfg.StartAt). Each cycle sets the absolute deadline from cfg.Deadline
// (defaulting to the period), runs body, then sleeps until the next release.
//
// A deadline watchdog checks each cycle at its absolute deadline instant —
// not at completion — so a miss is reported even for a cycle that never
// completes (a starved task). If a cycle overruns its period the next
// release happens immediately.
func (cpu *Processor) NewPeriodicTask(name string, cfg TaskConfig, body func(c *TaskCtx, cycle int)) *Task {
	if body == nil {
		panic("rtos: NewPeriodicTask with nil body")
	}
	return cpu.newPeriodic(name, cfg, func() *Task {
		return cpu.NewTask(name, cfg, func(c *TaskCtx) {
			t := c.t
			for {
				if d := t.sched.close(t.runCycle(body)); d > 0 {
					t.sleep(d)
				}
			}
		})
	})
}

// DefaultReleaseJitter returns the jitter value a periodic task uses when no
// release-jitter hook is installed (see System.SetReleaseJitterHook). It is
// exported so a schedule explorer can compute the nominal choice at each
// release before perturbing around it.
func DefaultReleaseJitter(name string, cycle int, max sim.Time) sim.Time {
	return releaseJitter(name, cycle, max)
}

// releaseJitter returns a deterministic pseudo-random jitter in [0, max]
// derived from the task name and cycle index (FNV-1a), so jittered runs
// reproduce exactly.
func releaseJitter(name string, cycle int, max sim.Time) sim.Time {
	if max <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(cycle))
	h.Write(b[:])
	return sim.Time(h.Sum64() % uint64(max+1))
}

// overheadDur evaluates one overhead duration formula against the snapshot
// octx. Split from charge so the continuation engine can evaluate at the
// charge instant, park for the duration on its strand timer, and record on
// wake — the exact sequence charge performs inline on a thread.
func (cpu *Processor) overheadDur(kind trace.OverheadKind, octx OverheadCtx) sim.Time {
	switch kind {
	case trace.OverheadScheduling:
		return cpu.overheads.scheduling(octx)
	case trace.OverheadContextSave:
		return cpu.overheads.save(octx)
	case trace.OverheadContextLoad:
		return cpu.overheads.load(octx)
	}
	return 0
}

// recordCharge books one completed overhead charge into the metrics and the
// trace: the tail half of charge, shared with the continuation engine.
func (cpu *Processor) recordCharge(kind trace.OverheadKind, t *Task, coreID int, start, end sim.Time) {
	var name trace.Name
	if t != nil {
		name = t.recName
	}
	cpu.met.overhead[kind].Add(uint64(end - start))
	if kind == trace.OverheadContextLoad {
		cpu.met.ctxSwitches.Inc()
	}
	cpu.rec.RecordOverhead(cpu.recName, name, coreID, kind, start, end)
}

// charge consumes one overhead duration on thread p and records it. The
// duration formula is evaluated at the charge instant. Zero durations are
// recorded as zero-length segments (they still count context switches in the
// statistics) without consuming a delta cycle.
func (cpu *Processor) charge(p *sim.Proc, kind trace.OverheadKind, t *Task, octx OverheadCtx) {
	d := cpu.overheadDur(kind, octx)
	start := cpu.k.Now()
	if d > 0 {
		p.Wait(d)
	}
	cpu.recordCharge(kind, t, octx.Core, start, cpu.k.Now())
}
