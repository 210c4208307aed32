package rtos

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// InterruptController models a processor's interrupt hardware and the ISR
// half of interrupt handling. The paper treats a hardware interrupt as the
// canonical event that "can suspend a running task between two of its RTOS
// calls" (section 3.1); this extension additionally models the cost of the
// interrupt service routines themselves:
//
//   - An IRQ is raised (typically by a hardware task) and its ISR starts
//     after the configured dispatch latency.
//   - The ISR borrows the processor: the running task is paused in place —
//     no RTOS context switch happens, exactly like a real ISR running on the
//     interrupted task's stack — and its remaining execution time is
//     preserved exactly.
//   - Pending IRQs are served strictly by interrupt priority; ISRs do not
//     nest (equivalent to interrupts being masked while an ISR runs).
//   - An ISR typically ends by signalling a communication relation to wake
//     a handler task; the normal RTOS preemption rules then apply the moment
//     the ISR completes.
//
// RTOS overhead windows (context save/load, scheduling) are treated as
// kernel critical sections with interrupts masked: a raised IRQ waits for
// them to finish only in the sense that the interrupted task cannot yield
// during them; ISR execution itself is serialized with task execution.
//
// The controller is a method-driven state machine, not a simulation thread:
// raise handling, dispatch latency, and fixed-cost ISR execution run as
// sim.Method callbacks inline in the kernel's evaluate phase, so an
// interrupt costs zero thread activations until an ISR body actually needs
// a blocking context. Only ISRs declared with NewIRQ (whose bodies may call
// ISRCtx.Execute) run on a lazily-spawned worker process; ISRs declared with
// NewInlineIRQ never leave the method.
type InterruptController struct {
	cpu *Processor

	raiseEv *sim.Event // Raise -> controller: a line became pending
	stepEv  *sim.Event // self-timed: latency or cost window elapsed
	bodyEv  *sim.Event // worker -> controller: blocking ISR body finished
	startEv *sim.Event // controller -> worker: run the active ISR body
	doneEv  *sim.Event // controller -> paused tasks: interrupt handling over
	method  *sim.Method

	// worker is the blocking-body process, spawned on the first NewIRQ; an
	// inline-only controller has no simulation process at all.
	worker *sim.Proc

	state       icState
	stepAt      sim.Time // horizon guarding icLatency/icCost transitions
	current     *IRQ     // line being serviced (from dequeue to completion)
	bodyPending bool     // a body start the worker has not picked up yet

	irqs    []*IRQ
	pending []*IRQ
	active  *IRQ

	serviced uint64
}

// icState is the controller's service phase. Transitions are guarded by the
// phase plus the stepAt horizon, never by which event triggered the method:
// method triggers coalesce, so a single run may stand for several causes and
// a stale stepEv fire may arrive after the phase already advanced.
type icState int8

const (
	icIdle    icState = iota // no service in progress
	icLatency                // dispatch latency running; stepEv due at stepAt
	icCost                   // inline ISR cost running; stepEv due at stepAt
	icBody                   // worker process executing a blocking ISR body
)

// IRQ is one interrupt line of a processor.
type IRQ struct {
	ctrl *InterruptController
	name string
	// priority orders pending IRQs; higher is served first.
	priority int
	// latency is the dispatch latency between Raise and the ISR starting.
	latency sim.Time
	// inline ISRs model their execution time with cost and run isr as a
	// completion callback in method context; threaded ISRs run isr on the
	// controller's worker process and may call ISRCtx.Execute.
	inline bool
	cost   sim.Time
	isr    func(*ISRCtx)

	taskName string     // trace identity, "isr:<name>"
	recName  trace.Name // taskName interned in the processor's recorder

	raised   uint64
	serviced uint64
	queued   bool

	// worstLatency tracks the worst observed raise-to-ISR-start delay.
	raiseAt      sim.Time
	worstLatency sim.Time

	// faults holds the line's injected faults (fault.go).
	faults irqFaults
}

// ISRCtx is the API available inside an interrupt service routine. ISRs may
// consume processor time and signal communication relations, but must not
// block: there is no task context to suspend.
type ISRCtx struct {
	irq *IRQ
	// exec is the worker process a threaded ISR body runs on; nil in an
	// inline ISR, where Execute is unavailable.
	exec *sim.Proc
}

// Interrupts returns the processor's interrupt controller, creating it on
// first use.
func (cpu *Processor) Interrupts() *InterruptController {
	if cpu.irqCtrl == nil {
		ic := &InterruptController{
			cpu:     cpu,
			raiseEv: cpu.k.NewEvent(cpu.name + ".irqRaise"),
			stepEv:  cpu.k.NewEvent(cpu.name + ".irqStep"),
			bodyEv:  cpu.k.NewEvent(cpu.name + ".irqBody"),
			startEv: cpu.k.NewEvent(cpu.name + ".irqStart"),
			doneEv:  cpu.k.NewEvent(cpu.name + ".irqDone"),
		}
		ic.method = cpu.k.NewMethod(cpu.name+".irqctrl", ic.step, false,
			ic.raiseEv, ic.stepEv, ic.bodyEv)
		cpu.irqCtrl = ic
	}
	return cpu.irqCtrl
}

// NewIRQ declares an interrupt line on the processor. The ISR runs for the
// simulated time it spends in ISRCtx.Execute; latency models the hardware
// plus kernel dispatch delay between Raise and the first ISR instruction.
// The body runs on the controller's worker process so it may consume time;
// for ISRs whose cost is fixed, NewInlineIRQ avoids the thread entirely.
func (ic *InterruptController) NewIRQ(name string, priority int, latency sim.Time, isr func(*ISRCtx)) *IRQ {
	if isr == nil {
		panic("rtos: NewIRQ with nil ISR")
	}
	irq := ic.newIRQ(name, priority, latency, isr)
	if ic.worker == nil {
		ic.worker = ic.cpu.k.Spawn(ic.cpu.name+".isrbody", ic.runBodies)
		// Infrastructure process: waiting forever for the next body is
		// normal, not a deadlock symptom.
		ic.worker.SetDaemon(true)
	}
	return irq
}

// NewInlineIRQ declares an interrupt line whose ISR has a fixed execution
// cost. The controller consumes cost of processor time and then runs isr —
// which may be nil — inline in the kernel's evaluate phase at the completion
// instant: signalling communication relations and other non-blocking work is
// allowed, ISRCtx.Execute is not (the cost parameter already models it). An
// inline interrupt is serviced without a single thread activation.
func (ic *InterruptController) NewInlineIRQ(name string, priority int, latency, cost sim.Time, isr func(*ISRCtx)) *IRQ {
	if cost < 0 {
		panic("rtos: NewInlineIRQ with negative cost")
	}
	irq := ic.newIRQ(name, priority, latency, isr)
	irq.inline = true
	irq.cost = cost
	return irq
}

func (ic *InterruptController) newIRQ(name string, priority int, latency sim.Time, isr func(*ISRCtx)) *IRQ {
	if latency < 0 {
		panic("rtos: NewIRQ with negative latency")
	}
	irq := &IRQ{
		ctrl:     ic,
		name:     name,
		priority: priority,
		latency:  latency,
		isr:      isr,
		taskName: "isr:" + name,
	}
	irq.recName = ic.cpu.rec.Intern(irq.taskName)
	ic.irqs = append(ic.irqs, irq)
	return irq
}

// Name returns the interrupt line's name.
func (q *IRQ) Name() string { return q.name }

// Raised returns how many times the line was raised.
func (q *IRQ) Raised() uint64 { return q.raised }

// Serviced returns how many ISR executions completed.
func (q *IRQ) Serviced() uint64 { return q.serviced }

// WorstLatency returns the worst observed delay between Raise and the ISR
// starting (dispatch latency plus blocking by other ISRs).
func (q *IRQ) WorstLatency() sim.Time { return q.worstLatency }

// Raise asserts the interrupt line. Safe from any simulation context; a
// line already pending or being serviced is not queued twice (edge
// triggered, like a real interrupt flag).
func (q *IRQ) Raise() {
	q.raised++
	q.ctrl.cpu.rec.Access("hw", q.name, trace.AccessSignal)
	if q.dropRaise() {
		return
	}
	if q.queued || q.ctrl.active == q {
		return
	}
	q.queued = true
	q.raiseAt = q.ctrl.cpu.k.Now()
	q.ctrl.pending = append(q.ctrl.pending, q)
	q.ctrl.raiseEv.Notify()
}

// Serviced returns the total number of ISR executions on the controller.
func (ic *InterruptController) Serviced() uint64 { return ic.serviced }

// Active reports whether an ISR is currently executing.
func (ic *InterruptController) Active() bool { return ic.active != nil }

// step is the controller's method body: it drives the service state machine
// forward as far as the current instant allows. Each iteration either
// completes a phase whose horizon has been reached or starts serving the
// next pending line; it returns when a timed window is in flight, a body is
// on the worker, or nothing is pending.
func (ic *InterruptController) step() {
	for {
		switch ic.state {
		case icLatency:
			if ic.cpu.k.Now() < ic.stepAt {
				return // raise (or stale fire) during the latency window
			}
			ic.state = icIdle
			if !ic.beginISR(ic.current) {
				return
			}
		case icCost:
			if ic.cpu.k.Now() < ic.stepAt {
				return
			}
			irq := ic.current
			if irq.isr != nil {
				irq.isr(&ISRCtx{irq: irq})
			}
			ic.completeISR(irq)
		case icBody:
			return // body completion arrives via the worker resetting state
		default: // icIdle
			if len(ic.pending) == 0 {
				return
			}
			// Highest interrupt priority first, FIFO among equals. A line
			// raised after this commit point waits for the next service even
			// if its priority is higher, like a real masked-interrupts window.
			best := 0
			for i, q := range ic.pending[1:] {
				if q.priority > ic.pending[best].priority {
					best = i + 1
				}
			}
			irq := ic.pending[best]
			ic.pending = append(ic.pending[:best], ic.pending[best+1:]...)
			irq.queued = false
			ic.current = irq

			if lat := irq.latency + irq.extraLatency(); lat > 0 {
				ic.state = icLatency
				ic.stepAt = ic.cpu.k.Now() + lat
				ic.stepEv.NotifyIn(lat)
				return
			}
			if !ic.beginISR(irq) {
				return
			}
		}
	}
}

// beginISR starts executing the committed line's ISR: the running tasks are
// paused in place and the body is run according to the line's kind. It
// reports whether the service already completed (zero-cost inline ISR), in
// which case the caller may serve the next pending line at the same instant.
func (ic *InterruptController) beginISR(irq *IRQ) bool {
	cpu := ic.cpu
	ic.active = irq
	if lat := cpu.k.Now() - irq.raiseAt; lat > irq.worstLatency {
		irq.worstLatency = lat
	}
	// Pause the running tasks in place: each wakes from its Execute wait,
	// sees the ISR active, and parks on doneEv without any RTOS call. An ISR
	// borrows the whole processor — on a multi-core processor it stalls
	// every core, modelling a controller that asserts a global interrupt
	// line (per-core interrupt routing is out of scope for this model).
	for i := range cpu.cores {
		if paused := cpu.cores[i].running; paused != nil {
			paused.evPreempt.Notify()
		}
	}
	cpu.rec.RecordState(irq.recName, cpu.recName, 0, trace.StateRunning)
	if !irq.inline {
		ic.state = icBody
		ic.bodyPending = true
		ic.startEv.Notify()
		return false
	}
	if irq.cost > 0 {
		ic.state = icCost
		ic.stepAt = cpu.k.Now() + irq.cost
		ic.stepEv.NotifyIn(irq.cost)
		return false
	}
	if irq.isr != nil {
		irq.isr(&ISRCtx{irq: irq})
	}
	ic.completeISR(irq)
	return true
}

// completeISR finishes the active service and releases the paused tasks.
func (ic *InterruptController) completeISR(irq *IRQ) {
	cpu := ic.cpu
	cpu.rec.RecordState(irq.recName, cpu.recName, 0, trace.StateWaiting)
	ic.active = nil
	ic.current = nil
	ic.state = icIdle
	irq.serviced++
	ic.serviced++
	ic.doneEv.Notify()
}

// runBodies is the worker process loop executing blocking ISR bodies. The
// bodyPending flag (not the event) is the ground truth for whether a body
// awaits pickup, so a start signalled before the worker's first activation
// is never lost.
func (ic *InterruptController) runBodies(p *sim.Proc) {
	for {
		if !ic.bodyPending {
			p.WaitEvent(ic.startEv)
			continue
		}
		ic.bodyPending = false
		irq := ic.active
		irq.isr(&ISRCtx{irq: irq, exec: p})
		ic.completeISR(irq)
		// Hand control back to the method to serve the next pending line; by
		// the time it runs the worker is parked on startEv again.
		ic.bodyEv.Notify()
	}
}

// Name returns the interrupt line's name.
func (c *ISRCtx) Name() string { return c.irq.taskName }

// Priority returns the interrupt priority (comm.Actor contract, so ISRs can
// signal events and do non-blocking queue operations).
func (c *ISRCtx) Priority() int { return c.irq.priority }

// Now returns the current simulated time.
func (c *ISRCtx) Now() sim.Time { return c.irq.ctrl.cpu.k.Now() }

// Execute consumes processor time inside the ISR. Only ISRs declared with
// NewIRQ may call it; an inline ISR's execution time is fixed by its cost
// parameter and its callback runs at the completion instant.
func (c *ISRCtx) Execute(d sim.Time) {
	if d < 0 {
		panic("rtos: ISR Execute with negative duration")
	}
	if c.exec == nil {
		panic(fmt.Sprintf("rtos: inline ISR %q must not Execute; its duration is the NewInlineIRQ cost parameter", c.Name()))
	}
	if d > 0 {
		c.exec.Wait(d)
	}
}

// Suspend implements the comm.Actor contract but always panics: ISRs must
// not block. Use non-blocking operations (TryPut, Signal) from ISR context
// and defer blocking work to a handler task.
func (c *ISRCtx) Suspend(resource bool, object string) {
	panic(fmt.Sprintf("rtos: ISR %q attempted to block on %q; ISRs must not block", c.Name(), object))
}

// Resume implements the comm.Actor contract (no-op: ISRs never suspend).
func (c *ISRCtx) Resume() {}
