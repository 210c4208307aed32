package scenario

import "fmt"

// validate checks cross-references and enum values before elaboration so
// description errors surface as errors, not mid-simulation panics.
func (s *System) validate() error {
	cpus := map[string]bool{}
	cpuDefs := map[string]Processor{}
	for _, p := range s.Processors {
		if p.Name == "" {
			return fmt.Errorf("scenario: processor with empty name")
		}
		if cpus[p.Name] {
			return fmt.Errorf("scenario: duplicate processor %q", p.Name)
		}
		cpus[p.Name] = true
		cpuDefs[p.Name] = p
		if err := (Override{Engine: p.Engine, Policy: p.Policy, Quantum: p.Quantum.Time(),
			Speed: p.Speed, Cores: p.Cores, Domain: p.Domain}).Check(); err != nil {
			return fmt.Errorf("scenario: processor %q: %w", p.Name, err)
		}
	}

	objs, err := s.objects()
	if err != nil {
		return err
	}
	for _, e := range s.Events {
		switch e.Policy {
		case "", "fugitive", "boolean", "counter":
		default:
			return fmt.Errorf("scenario: event %q: unknown policy %q", e.Name, e.Policy)
		}
	}
	for _, q := range s.Queues {
		if q.Capacity < 1 {
			return fmt.Errorf("scenario: queue %q: capacity must be at least 1", q.Name)
		}
	}
	for _, c := range s.Constraints {
		if c.Limit <= 0 {
			return fmt.Errorf("scenario: constraint %q: limit must be positive", c.Name)
		}
	}

	buses := map[string]bool{}
	for _, b := range s.Buses {
		if buses[b.Name] {
			return fmt.Errorf("scenario: duplicate bus %q", b.Name)
		}
		buses[b.Name] = true
	}
	for _, c := range s.Channels {
		// A channel elaborates a queue of its own name.
		if _, ok := objs[RefQueue][c.Name]; ok {
			return fmt.Errorf("scenario: duplicate channel %q", c.Name)
		}
		if !buses[c.Bus] {
			return fmt.Errorf("scenario: channel %q: unknown bus %q", c.Name, c.Bus)
		}
		if c.Capacity < 1 {
			return fmt.Errorf("scenario: channel %q: capacity must be at least 1", c.Name)
		}
		if c.MessageBytes < 0 {
			return fmt.Errorf("scenario: channel %q: negative message size", c.Name)
		}
	}
	for name, tr := range s.Traces {
		if len(tr) == 0 {
			return fmt.Errorf("scenario: trace %q is empty", name)
		}
		for i, d := range tr {
			if d <= 0 {
				return fmt.Errorf("scenario: trace %q entry %d must be positive", name, i)
			}
		}
	}
	for _, w := range s.Watchdogs {
		if w.Name == "" {
			return fmt.Errorf("scenario: watchdog with empty name")
		}
	}
	for _, srv := range s.Servers {
		if !cpus[srv.Processor] {
			return fmt.Errorf("scenario: server %q: unknown processor %q", srv.Name, srv.Processor)
		}
		switch srv.Kind {
		case "polling", "deferrable", "sporadic":
		default:
			return fmt.Errorf("scenario: server %q: kind must be polling, deferrable or sporadic", srv.Name)
		}
		if srv.Period <= 0 || srv.Budget <= 0 || srv.Budget > srv.Period {
			return fmt.Errorf("scenario: server %q: budget must be in (0, period]", srv.Name)
		}
	}
	for _, q := range s.IRQs {
		if !cpus[q.Processor] {
			return fmt.Errorf("scenario: irq %q: unknown processor %q", q.Name, q.Processor)
		}
		if len(q.Body) == 0 {
			return fmt.Errorf("scenario: irq %q has an empty body", q.Name)
		}
		if err := validateOps("irq:"+q.Name, q.Body, isrKind, &objs); err != nil {
			return err
		}
	}

	names := map[string]bool{}
	taskCPU := map[string]string{}
	for _, t := range s.Tasks {
		if names[t.Name] {
			return fmt.Errorf("scenario: duplicate task %q", t.Name)
		}
		names[t.Name] = true
		if !cpus[t.Processor] {
			return fmt.Errorf("scenario: task %q: unknown processor %q", t.Name, t.Processor)
		}
		taskCPU[t.Name] = t.Processor
		if t.Affinity != 0 {
			cpu := cpuDefs[t.Processor]
			if t.Affinity < 0 || t.Affinity >= max(1, cpu.Cores) {
				return fmt.Errorf("scenario: task %q: affinity %d out of range for processor %q with %d core(s)",
					t.Name, t.Affinity, t.Processor, max(1, cpu.Cores))
			}
			if cpu.Domain == "global" {
				return fmt.Errorf("scenario: task %q: affinity requires the partitioned domain on processor %q",
					t.Name, t.Processor)
			}
		}
		if t.Loop && t.Period > 0 {
			return fmt.Errorf("scenario: task %q: loop and period are mutually exclusive", t.Name)
		}
		if err := validateRepeat(t.Name, t.Repeat, t.Loop, t.Period > 0); err != nil {
			return err
		}
		if t.Jitter > 0 && (t.Period == 0 || t.Jitter >= t.Period) {
			return fmt.Errorf("scenario: task %q: jitter requires a period larger than the jitter", t.Name)
		}
		switch t.OnMiss {
		case "", "continue":
		case "abort", "skip_next", "restart":
			if t.Period == 0 {
				return fmt.Errorf("scenario: task %q: onMiss %q requires a period", t.Name, t.OnMiss)
			}
		default:
			return fmt.Errorf("scenario: task %q: unknown onMiss policy %q", t.Name, t.OnMiss)
		}
		if len(t.Body) == 0 {
			return fmt.Errorf("scenario: task %q has an empty body", t.Name)
		}
		if err := (Override{TaskEngine: t.Engine}).Check(); err != nil {
			return fmt.Errorf("scenario: task %q: %w", t.Name, err)
		}
		if err := validateOps(t.Name, t.Body, swKind, &objs); err != nil {
			return err
		}
	}
	for _, h := range s.Hardware {
		if names[h.Name] {
			return fmt.Errorf("scenario: duplicate task %q", h.Name)
		}
		names[h.Name] = true
		if len(h.Body) == 0 {
			return fmt.Errorf("scenario: hardware task %q has an empty body", h.Name)
		}
		if err := validateRepeat(h.Name, h.Repeat, h.Loop, false); err != nil {
			return err
		}
		if err := validateOps(h.Name, h.Body, hwKind, &objs); err != nil {
			return err
		}
	}
	if len(s.Tasks) == 0 && len(s.Hardware) == 0 {
		return fmt.Errorf("scenario: no tasks")
	}

	for _, w := range s.Watchdogs {
		if !cpus[w.Processor] {
			return fmt.Errorf("scenario: watchdog %q: unknown processor %q", w.Name, w.Processor)
		}
		if w.Timeout <= 0 {
			return fmt.Errorf("scenario: watchdog %q: timeout must be positive", w.Name)
		}
		if w.Task != "" {
			cpu, ok := taskCPU[w.Task]
			if !ok {
				return fmt.Errorf("scenario: watchdog %q: unknown task %q", w.Name, w.Task)
			}
			if cpu != w.Processor {
				return fmt.Errorf("scenario: watchdog %q: task %q runs on processor %q, not %q",
					w.Name, w.Task, cpu, w.Processor)
			}
		}
	}
	if err := s.validateFaults(taskCPU, objs[RefIRQ]); err != nil {
		return err
	}
	if err := s.validateExplore(); err != nil {
		return err
	}
	return nil
}

// validateRepeat rejects a task repeat count that would not be honoured: a
// negative count, or any count beside loop or period (the body then runs
// forever or once per cycle).
func validateRepeat(task string, repeat int, loop, periodic bool) error {
	switch {
	case repeat < 0:
		return fmt.Errorf("scenario: task %q: negative repeat %d", task, repeat)
	case repeat > 0 && loop:
		return fmt.Errorf("scenario: task %q: repeat and loop are mutually exclusive", task)
	case repeat > 0 && periodic:
		return fmt.Errorf("scenario: task %q: repeat and period are mutually exclusive", task)
	}
	return nil
}

// validateExplore checks the schedule-exploration block: bounds must be
// non-negative and the perturbed tasks must be periodic with jitter room.
func (s *System) validateExplore() error {
	e := s.Explore
	if e == nil {
		return nil
	}
	if e.MaxRuns < 0 || e.MaxDepth < 0 || e.JitterSteps < 0 || e.MaxBranch < 0 {
		return fmt.Errorf("scenario: explore: bounds must be non-negative")
	}
	if e.MaxInversion < 0 {
		return fmt.Errorf("scenario: explore: negative maxInversion")
	}
	taskDef := map[string]SWTask{}
	for _, t := range s.Tasks {
		taskDef[t.Name] = t
	}
	for name, bound := range e.Jitter {
		t, ok := taskDef[name]
		if !ok {
			return fmt.Errorf("scenario: explore: jitter for unknown task %q", name)
		}
		if bound <= 0 {
			return fmt.Errorf("scenario: explore: task %q: jitter bound must be positive", name)
		}
		if t.Period == 0 || bound >= t.Period {
			return fmt.Errorf("scenario: explore: task %q: jitter bound requires a period larger than the bound", name)
		}
	}
	for _, name := range e.ExpectedMiss {
		if _, ok := taskDef[name]; !ok {
			return fmt.Errorf("scenario: explore: expectedMiss names unknown task %q", name)
		}
	}
	return nil
}

// validateFaults mirrors the preconditions of the rtos fault injectors so a
// bad description is an error, not an elaboration panic.
func (s *System) validateFaults(taskCPU map[string]string, irqs map[string]string) error {
	for i, f := range s.Faults {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("scenario: fault %d (%s): %s", i, f.Kind, fmt.Sprintf(format, args...))
		}
		needTask := func() error {
			if taskCPU[f.Task] == "" {
				return fail("unknown task %q", f.Task)
			}
			return nil
		}
		if f.Probability < 0 || f.Probability > 1 {
			return fail("probability out of [0, 1]")
		}
		switch f.Kind {
		case "wcet_overrun":
			if err := needTask(); err != nil {
				return err
			}
			if f.Factor != 0 && f.Factor < 1 {
				return fail("factor must be at least 1")
			}
			if f.Extra < 0 {
				return fail("negative extra")
			}
			if (f.Factor == 0 || f.Factor == 1) && f.Extra == 0 {
				return fail("no effect: needs factor > 1 and/or a positive extra")
			}
			if f.After < 0 || f.Until < 0 || (f.Until > 0 && f.Until <= f.After) {
				return fail("active window [after, until) is empty")
			}
		case "crash":
			if err := needTask(); err != nil {
				return err
			}
			if f.At < 0 {
				return fail("negative injection time")
			}
		case "hang":
			if err := needTask(); err != nil {
				return err
			}
			if f.At < 0 || f.For < 0 {
				return fail("negative time")
			}
		case "irq_drop":
			if _, ok := irqs[f.IRQ]; !ok {
				return fail("unknown irq %q", f.IRQ)
			}
		case "irq_latency":
			if _, ok := irqs[f.IRQ]; !ok {
				return fail("unknown irq %q", f.IRQ)
			}
			if f.Extra <= 0 {
				return fail("needs a positive extra latency")
			}
		default:
			return fail("unknown fault kind")
		}
	}
	return nil
}

// opsKind selects the operation whitelist for a body.
type opsKind uint8

const (
	swKind  opsKind = iota // software tasks: everything
	hwKind                 // hardware tasks: no execute, no RTOS calls
	isrKind                // interrupt service routines: non-blocking only
)

// validateOps checks each op's actor kind and arguments, then that every
// object it names (per the op-reference table) is declared.
func validateOps(task string, ops []Op, kind opsKind, objs *Objects) error {
	for i := range ops {
		op := &ops[i]
		fail := func(format string, args ...any) error {
			return fmt.Errorf("scenario: task %q op %d (%s): %s", task, i, op.Op, fmt.Sprintf(format, args...))
		}
		if _, ok := opRefs[op.Op]; !ok {
			return fail("unknown operation")
		}
		switch op.Op {
		case "execute":
			if kind == hwKind {
				return fail("hardware tasks use delay, not execute")
			}
			if op.For <= 0 {
				return fail("needs a positive 'for' duration")
			}
		case "execute_trace":
			if kind == hwKind {
				return fail("hardware tasks use delay, not execute_trace")
			}
		case "delay":
			if kind == isrKind {
				return fail("ISRs consume time with execute, not delay")
			}
			if op.For <= 0 {
				return fail("needs a positive 'for' duration")
			}
		case "wait":
			if kind == isrKind {
				return fail("ISRs must not block")
			}
		case "put", "get":
			if kind == isrKind {
				return fail("ISRs must not block; use tryput")
			}
		case "lock", "unlock", "read", "write":
			if kind == isrKind {
				return fail("ISRs must not block on shared variables")
			}
		case "nopreempt_begin", "nopreempt_end", "setprio", "yield":
			if kind != swKind {
				return fail("only available on software tasks")
			}
		case "kick":
			if kind == hwKind {
				return fail("watchdogs are kicked from software tasks or ISRs")
			}
		case "raise":
			if kind == isrKind {
				return fail("ISRs cannot raise interrupts in this model")
			}
		case "send", "recv":
			if kind == isrKind {
				return fail("ISRs must not block on bus channels")
			}
		case "submit":
			if op.For <= 0 {
				return fail("needs a positive 'for' work duration")
			}
		case "repeat":
			if op.Count < 1 {
				return fail("needs a count of at least 1")
			}
			if len(op.Body) == 0 {
				return fail("needs a non-empty body")
			}
			if err := validateOps(task, op.Body, kind, objs); err != nil {
				return err
			}
		}
		for r := range op.refs {
			if _, ok := objs[r.Kind][r.Name]; !ok {
				return fail("unknown %s %q", r.Kind, r.Name)
			}
		}
	}
	return nil
}
