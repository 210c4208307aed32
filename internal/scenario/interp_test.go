package scenario

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// This file keeps an op-by-op scenario interpreter as the differential
// reference of compileOps and Program.Run: it calls the blocking actor API
// directly for each op, sharing no code with either, so a mistranslated op
// shows as a trace difference. referenceBody swaps in for goBody, so every
// software task with "engine": "goroutine", every hardware task and every
// ISR body is built from it instead of from the compiled Program.

// opActor abstracts the software/hardware task and ISR APIs for the
// interpreter.
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

// referenceBody is goBody built on the interpreter.
func referenceBody(b *Built, body []Op, loop bool, repeat int) func(comm.Actor) {
	return func(a comm.Actor) {
		var oa opActor
		switch c := a.(type) {
		case *rtos.TaskCtx:
			oa = swOps(c)
		case *rtos.HWCtx:
			oa = hwOps(c)
		case *rtos.ISRCtx:
			oa = isrActor(c)
		}
		b.runRepeated(oa, body, loop, repeat)
	}
}

// withReferenceBodies runs fn with goroutine-form bodies built by the
// interpreter and returns how many bodies fn built that way, so a caller can
// tell the seam was taken.
func withReferenceBodies(fn func()) (built int) {
	prev := goBody
	goBody = func(b *Built, body []Op, loop bool, repeat int) func(comm.Actor) {
		built++
		return referenceBody(b, body, loop, repeat)
	}
	defer func() { goBody = prev }()
	fn()
	return built
}

// runRepeated runs a body forever for a loop task, else repeat times (at
// least once).
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
