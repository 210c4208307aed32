package rtos

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/sim"
)

// Program is the list-of-ops form of a Continuation: a flat sequence of
// yield ops, inline steps and counted loops, interpreted without allocating.
// Build one with BuildProgram. A Program implements Continuation and may be
// shared between tasks only if none of its Do closures capture per-task
// state; sharing one instance between two tasks of the same processor is safe
// because the engine resumes at most one task per processor at any instant
// on a single core — to stay safe under multi-core, give each task its own
// Program.
type Program struct {
	ops []progOp
	// counters holds the live iteration counts of loop ops, indexed by the
	// loop-start op's position.
	counters []int
	pc       int
}

// progOpKind discriminates program ops.
type progOpKind uint8

const (
	popYield progOpKind = iota
	popInline
	popLoopStart
	popLoopEnd
)

// progOp is one step of a Program.
type progOp struct {
	kind  progOpKind
	y     Yield          // popYield
	fn    func(*TaskCtx) // popInline
	n     int            // popLoopStart: iteration count, negative = forever
	end   int            // popLoopStart: index of the matching popLoopEnd
	start int            // popLoopEnd: index of the matching popLoopStart
}

// Reset rewinds the program to its first op.
func (p *Program) Reset() { p.pc = 0 }

// Resume interprets ops until the next yield op (returned) or the end of the
// program (returns Finish). Inline steps and loop bookkeeping run here, in
// kernel context.
func (p *Program) Resume(c *TaskCtx) Yield {
	for p.pc < len(p.ops) {
		op := &p.ops[p.pc]
		switch op.kind {
		case popYield:
			p.pc++
			return op.y
		case popInline:
			op.fn(c)
			p.pc++
		case popLoopStart:
			if op.n == 0 {
				p.pc = op.end + 1
				continue
			}
			p.counters[p.pc] = op.n
			p.pc++
		case popLoopEnd:
			start := &p.ops[op.start]
			if start.n < 0 {
				p.pc = op.start + 1
				continue
			}
			p.counters[op.start]--
			if p.counters[op.start] > 0 {
				p.pc = op.start + 1
			} else {
				p.pc++
			}
		}
	}
	return Finish()
}

// Len returns the number of ops in the program.
func (p *Program) Len() int { return len(p.ops) }

// ProgramBuilder assembles a Program. Calls chain:
//
//	prog := rtos.BuildProgram().
//	    Loop(-1).
//	    Op(rtos.LockMutex(mu)).
//	    Compute(2 * sim.Ms).
//	    Unlock(mu).
//	    WaitFor(8 * sim.Ms).
//	    End().
//	    Build()
type ProgramBuilder struct {
	ops   []progOp
	loops []int // open loop-start indices
}

// BuildProgram starts an empty program.
func BuildProgram() *ProgramBuilder { return &ProgramBuilder{} }

// Op appends any yield op.
func (b *ProgramBuilder) Op(y Yield) *ProgramBuilder {
	b.ops = append(b.ops, progOp{kind: popYield, y: y})
	return b
}

// Compute appends a processor-time op (TaskCtx.Execute).
func (b *ProgramBuilder) Compute(d sim.Time) *ProgramBuilder { return b.Op(Compute(d)) }

// ComputeFn appends a processor-time op with a run-time duration.
func (b *ProgramBuilder) ComputeFn(fn func(*TaskCtx) sim.Time) *ProgramBuilder {
	return b.Op(ComputeFn(fn))
}

// WaitFor appends a timed sleep (TaskCtx.Delay).
func (b *ProgramBuilder) WaitFor(d sim.Time) *ProgramBuilder { return b.Op(WaitFor(d)) }

// Yield appends a voluntary processor release (TaskCtx.Yield).
func (b *ProgramBuilder) Yield() *ProgramBuilder { return b.Op(YieldCPU()) }

// Do appends an inline step: fn runs in kernel context between the
// surrounding ops and must not block. Use it for the non-blocking API
// (Unlock, Signal, TryPut, SetPriority, DisablePreemption, Kick, Raise...).
func (b *ProgramBuilder) Do(fn func(*TaskCtx)) *ProgramBuilder {
	if fn == nil {
		panic("rtos: ProgramBuilder.Do with nil function")
	}
	b.ops = append(b.ops, progOp{kind: popInline, fn: fn})
	return b
}

// Lock appends a blocking mutex acquisition (LockMutex).
func (b *ProgramBuilder) Lock(m *comm.Mutex) *ProgramBuilder { return b.Op(LockMutex(m)) }

// Unlock appends an inline mutex release.
func (b *ProgramBuilder) Unlock(m *comm.Mutex) *ProgramBuilder {
	return b.Do(func(c *TaskCtx) { m.Unlock(c) })
}

// WaitOn appends a blocking comm-event wait.
func (b *ProgramBuilder) WaitOn(e *comm.Event) *ProgramBuilder { return b.Op(WaitOn(e)) }

// Signal appends an inline comm-event signal.
func (b *ProgramBuilder) Signal(e *comm.Event) *ProgramBuilder {
	return b.Do(func(c *TaskCtx) { e.Signal(c) })
}

// Loop opens a counted loop around the following ops; n < 0 loops forever,
// n == 0 skips the body. Close with End. Loops nest.
func (b *ProgramBuilder) Loop(n int) *ProgramBuilder {
	b.loops = append(b.loops, len(b.ops))
	b.ops = append(b.ops, progOp{kind: popLoopStart, n: n})
	return b
}

// End closes the innermost open Loop.
func (b *ProgramBuilder) End() *ProgramBuilder {
	if len(b.loops) == 0 {
		panic("rtos: ProgramBuilder.End without matching Loop")
	}
	start := b.loops[len(b.loops)-1]
	b.loops = b.loops[:len(b.loops)-1]
	b.ops = append(b.ops, progOp{kind: popLoopEnd, start: start})
	b.ops[start].end = len(b.ops) - 1
	return b
}

// Build finalizes the program. It panics on unclosed loops.
func (b *ProgramBuilder) Build() *Program {
	if len(b.loops) != 0 {
		panic(fmt.Sprintf("rtos: ProgramBuilder.Build with %d unclosed loop(s)", len(b.loops)))
	}
	return &Program{ops: b.ops, counters: make([]int, len(b.ops))}
}
