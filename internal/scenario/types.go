// Package scenario loads real-time system descriptions from JSON and
// elaborates them into runnable rtos systems.
//
// It stands in for the graphical capture tool and SystemC code generator of
// the paper ([8], [12]): the same modelling vocabulary — processors with an
// RTOS configuration, software tasks with time-annotated behaviours,
// hardware tasks, and the MCSE relations (events, message queues, shared
// variables) — is expressed declaratively and interpreted against the model
// API, so systems can be simulated from a description file without writing
// Go code.
package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Duration is a sim.Time that unmarshals from strings like "5us", "1.5ms",
// "250ns" or from a plain number of picoseconds.
type Duration sim.Time

// Time returns the duration as a sim.Time.
func (d Duration) Time() sim.Time { return sim.Time(d) }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] != '"' {
		var ps int64
		if err := json.Unmarshal(b, &ps); err != nil {
			return err
		}
		*d = Duration(ps)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	t, err := ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(t)
	return nil
}

// ParseDuration parses "5us", "1.5ms", "3s", "250ns", "7ps".
func ParseDuration(s string) (sim.Time, error) {
	s = strings.TrimSpace(s)
	units := []struct {
		suffix string
		mul    sim.Time
	}{
		{"ps", sim.Ps}, {"ns", sim.Ns}, {"us", sim.Us}, {"ms", sim.Ms}, {"s", sim.Sec},
	}
	for _, u := range units {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		num := strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
		// "s" also matches "us" etc.; require the numeric part to parse.
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			continue
		}
		if v < 0 {
			return 0, fmt.Errorf("scenario: negative duration %q", s)
		}
		if v*float64(u.mul) >= float64(sim.TimeMax) {
			return 0, fmt.Errorf("scenario: duration %q overflows the simulated time range", s)
		}
		return u.mul.Scale(v), nil
	}
	return 0, fmt.Errorf("scenario: cannot parse duration %q (want e.g. \"5us\", \"1.5ms\")", s)
}

// System is the root of a scenario description.
type System struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Horizon bounds the simulation; zero runs to event starvation.
	Horizon Duration `json:"horizon"`

	Processors  []Processor  `json:"processors"`
	Events      []Event      `json:"events"`
	Queues      []Queue      `json:"queues"`
	Shared      []Shared     `json:"shared"`
	Constraints []Constraint `json:"constraints"`
	// Traces are named sequences of execution durations for trace-driven
	// simulation: an execute_trace op consumes them in order, wrapping
	// around (e.g. per-frame decode times measured on a reference platform).
	Traces    map[string][]Duration `json:"traces"`
	IRQs      []IRQDef              `json:"irqs"`
	Buses     []BusDef              `json:"buses"`
	Channels  []ChannelDef          `json:"channels"`
	Servers   []ServerDef           `json:"servers"`
	Tasks     []SWTask              `json:"tasks"`
	Hardware  []HWTask              `json:"hardware"`
	Faults    []FaultDef            `json:"faults"`
	Watchdogs []WatchdogDef         `json:"watchdogs"`

	// Explore parameterizes schedule-space exploration (rtossim explore,
	// package explore); plain simulation runs ignore it.
	Explore *ExploreSpec `json:"explore,omitempty"`
}

// ExploreSpec bounds and parameterizes schedule-space exploration: which
// release-jitter perturbations to enumerate, how far to search, and which
// outcomes count as expected rather than as invariant violations.
type ExploreSpec struct {
	// MaxRuns bounds the number of enumerated interleavings (default 256).
	MaxRuns int `json:"maxRuns"`
	// MaxDepth bounds how many choice points of a run may be branched on
	// (default 32). Deeper choice points always take their default.
	MaxDepth int `json:"maxDepth"`
	// JitterSteps is the number of quantized candidate values enumerated per
	// jittered release, spread evenly over [0, bound] (default 3: 0, bound/2,
	// bound). The task's nominal jitter value is always a candidate too.
	JitterSteps int `json:"jitterSteps"`
	// MaxBranch caps the alternatives enumerated at one choice point; larger
	// decision spaces are truncated and the truncation is reported (default
	// 24, i.e. full coverage of same-instant batches up to 4 conflicting
	// entries).
	MaxBranch int `json:"maxBranch"`
	// Jitter declares (or overrides) the per-task release-jitter bounds the
	// explorer perturbs within. Tasks must be periodic and the bound smaller
	// than the period. A task listed here with no jitter in its own
	// definition gets nominal jitter zero, so the default decision
	// reproduces the unjittered seed run.
	Jitter map[string]Duration `json:"jitter"`
	// ExpectedMiss lists tasks whose deadline misses are expected and not
	// violations. Misses of the unperturbed baseline run are always
	// expected: the explorer flags only interleavings that create new ones.
	ExpectedMiss []string `json:"expectedMiss"`
	// MaxInversion bounds the longest tolerated priority-inversion interval
	// of any task; zero disables the check.
	MaxInversion Duration `json:"maxInversion"`
	// CheckEngines re-runs every explored interleaving on the other RTOS
	// engine and requires identical trace signatures.
	CheckEngines bool `json:"checkEngines"`
}

// FaultDef describes one injected fault. The fields used depend on Kind:
//
//	wcet_overrun {task, factor and/or extra, probability?, seed?, after?, until?}
//	    every affected execute of the task takes factor times its duration
//	    plus extra; probability selects affected calls (omitted: all of them)
//	crash {task, at}
//	    the task's job in flight at time at is aborted at its next execute
//	    or delay; a periodic task resumes at its next release, a one-shot
//	    task terminates
//	hang {task, at, for?}
//	    at its next execute instant after at, the task stops consuming
//	    processor time for the given duration — forever when for is omitted,
//	    in which case only a watchdog recovers it
//	irq_drop {irq, probability?, seed?}
//	    a fraction of raises of the line vanish (omitted probability: all)
//	irq_latency {irq, extra, probability?, seed?}
//	    a fraction of ISR activations suffer extra dispatch latency
type FaultDef struct {
	Kind string `json:"kind"`
	// Task names the target software task (task-directed kinds).
	Task string `json:"task"`
	// IRQ names the target interrupt line (irq-directed kinds).
	IRQ string `json:"irq"`
	// At is the absolute injection instant (crash, hang).
	At Duration `json:"at"`
	// For is the hang duration; zero or omitted hangs forever.
	For Duration `json:"for"`
	// Factor multiplies execute durations (wcet_overrun); 0 means 1.
	Factor float64 `json:"factor"`
	// Extra is added per execute (wcet_overrun) or per activation (irq_latency).
	Extra Duration `json:"extra"`
	// Probability in [0,1] selects affected occurrences; 0 or 1 means all.
	Probability float64 `json:"probability"`
	// Seed drives the deterministic per-occurrence decisions.
	Seed int64 `json:"seed"`
	// After/Until bound the active window of a wcet_overrun fault.
	After Duration `json:"after"`
	Until Duration `json:"until"`
}

// WatchdogDef describes a per-processor watchdog timer. Task bodies pet it
// with the kick op; when the timeout elapses without a kick it fires,
// aborting and restarting the guarded task's job in flight (if any).
type WatchdogDef struct {
	Name      string   `json:"name"`
	Processor string   `json:"processor"`
	Timeout   Duration `json:"timeout"`
	// Task is the software task restarted on firing; empty means the
	// watchdog only records the event.
	Task string `json:"task"`
}

// BusDef describes a shared interconnect.
type BusDef struct {
	Name string `json:"name"`
	// PerByte is the transfer time per byte.
	PerByte Duration `json:"perByte"`
	// Arbitration is the fixed per-transfer acquisition cost.
	Arbitration Duration `json:"arbitration"`
}

// ChannelDef describes a message channel routed over a bus.
type ChannelDef struct {
	Name     string `json:"name"`
	Bus      string `json:"bus"`
	Capacity int    `json:"capacity"`
	// MessageBytes is the payload size charged per message (default 1).
	MessageBytes int `json:"messageBytes"`
}

// ServerDef describes an aperiodic server.
type ServerDef struct {
	Name      string `json:"name"`
	Processor string `json:"processor"`
	// Kind: "polling", "deferrable" or "sporadic".
	Kind     string   `json:"kind"`
	Priority int      `json:"priority"`
	Period   Duration `json:"period"`
	Budget   Duration `json:"budget"`
	QueueCap int      `json:"queueCap"`
}

// IRQDef describes an interrupt line and its service routine. ISR bodies
// may only use non-blocking operations: execute, signal, tryput, lat_start,
// lat_stop and repeat.
type IRQDef struct {
	Name      string   `json:"name"`
	Processor string   `json:"processor"`
	Priority  int      `json:"priority"`
	Latency   Duration `json:"latency"`
	Body      []Op     `json:"body"`
}

// Processor describes a software processor and its RTOS configuration.
type Processor struct {
	Name string `json:"name"`
	// Engine: "procedural" (default) or "threaded".
	Engine string `json:"engine"`
	// Policy: "priority" (default), "fifo", "rr", "edf".
	Policy string `json:"policy"`
	// Quantum is the round-robin time slice (required for "rr").
	Quantum Duration `json:"quantum"`
	// NonPreemptive starts the processor in non-preemptive mode.
	NonPreemptive bool `json:"nonPreemptive"`
	// Speed is the execution-rate factor relative to the reference
	// processor (0 means 1.0).
	Speed float64 `json:"speed"`
	// Cores is the number of symmetric cores (0 means 1, the paper's
	// single-CPU model).
	Cores int `json:"cores"`
	// Domain: "partitioned" (default; tasks pinned per their affinity) or
	// "global" (one shared ready queue, tasks migrate between cores).
	Domain string `json:"domain"`
	// Overheads are the three RTOS durations (fixed values).
	Overheads OverheadSpec `json:"overheads"`
	// Shard labels the parallel shard group this processor belongs to when
	// the sharded multi-kernel engine runs the scenario. Processors sharing
	// a label are pinned onto one kernel; empty leaves placement to the
	// partitioner. Processors that interact through anything but
	// latency-bearing channels are co-located regardless of labels.
	Shard string `json:"shard,omitempty"`
}

// OverheadSpec configures the three RTOS overhead durations. SchedulingPerReady
// adds a per-ready-task slope to the scheduling duration.
type OverheadSpec struct {
	Scheduling         Duration `json:"scheduling"`
	SchedulingPerReady Duration `json:"schedulingPerReady"`
	ContextSave        Duration `json:"contextSave"`
	ContextLoad        Duration `json:"contextLoad"`
}

// Event describes an MCSE event relation.
type Event struct {
	Name string `json:"name"`
	// Policy: "fugitive" (default), "boolean", "counter".
	Policy string `json:"policy"`
}

// Queue describes an MCSE message-queue relation carrying opaque tokens.
type Queue struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
}

// Shared describes an MCSE shared-variable relation holding an integer.
type Shared struct {
	Name    string `json:"name"`
	Initial int    `json:"initial"`
	// Inherit enables the priority-inheritance protocol on its lock.
	Inherit bool `json:"inherit"`
}

// Constraint describes a latency constraint driven by lat_start/lat_stop ops.
type Constraint struct {
	Name  string   `json:"name"`
	Limit Duration `json:"limit"`
}

// SWTask describes a software task.
type SWTask struct {
	Name      string `json:"name"`
	Processor string `json:"processor"`
	Priority  int    `json:"priority"`
	// Affinity pins the task to a core of a partitioned multi-core
	// processor (default core 0). Must be 0 under the global domain.
	Affinity int `json:"affinity"`
	// StartAt delays the first release.
	StartAt Duration `json:"startAt"`
	// Period makes the task periodic (its body runs once per release).
	Period Duration `json:"period"`
	// Deadline is the relative deadline (EDF, periodic watchdog).
	Deadline Duration `json:"deadline"`
	// Jitter is the maximum release jitter of a periodic task.
	Jitter Duration `json:"jitter"`
	// Loop repeats the body forever (aperiodic cyclic task).
	Loop bool `json:"loop"`
	// Repeat runs the body a fixed number of times (default 1).
	Repeat int `json:"repeat"`
	// OnMiss selects the deadline-miss recovery policy of a periodic task:
	// "continue" (default), "abort", "skip_next" or "restart".
	OnMiss string `json:"onMiss"`
	// Engine selects the task-body execution form: "goroutine" (the body
	// runs on its own simulation thread) or "continuation" (the body is
	// compiled to a yield-op program resumed inline by the kernel, with no
	// thread and no per-switch parking). Unset, Build chooses: a non-loop
	// body made only of execute, delay, yield, nopreempt_begin/end, setprio
	// and repeat compiles to a continuation, any other body runs as a
	// goroutine. Both forms produce identical simulated behaviour;
	// continuation bodies cannot use the send/recv bus ops.
	Engine string `json:"engine"`
	Body   []Op   `json:"body"`
}

// HWTask describes a hardware task.
type HWTask struct {
	Name     string   `json:"name"`
	Priority int      `json:"priority"`
	StartAt  Duration `json:"startAt"`
	Loop     bool     `json:"loop"`
	Repeat   int      `json:"repeat"`
	Body     []Op     `json:"body"`
}

// Op is one behaviour-script operation. Exactly one interpretation applies
// depending on Op:
//
//	execute {for}          consume processor time (software only)
//	execute_trace {trace}  consume the trace's next duration (wraps around)
//	delay {for}            sleep (software) / let time pass (hardware)
//	wait {event}           wait on an event relation
//	signal {event}         signal an event relation
//	put {queue, value}     send a message (blocking when full)
//	tryput {queue, value}  send without blocking (dropped when full)
//	raise {irq}            raise an interrupt line
//	send {channel, value}  transfer a message over a bus channel
//	recv {channel}         receive from a bus channel
//	submit {server, for, constraint?}  queue aperiodic work on a server;
//	                       the named constraint, if any, is stopped when
//	                       the job completes
//	get {queue}            receive a message (blocking when empty)
//	lock {shared}          lock a shared variable
//	unlock {shared}        unlock a shared variable
//	read {shared}          lock+read+unlock a shared variable
//	write {shared, value}  lock+write+unlock a shared variable
//	nopreempt_begin        enter a non-preemptible critical region (sw only)
//	nopreempt_end          leave it
//	setprio {value}        change the task's base priority (sw only)
//	yield                  release the processor voluntarily (sw only)
//	lat_start {constraint} start a latency-constraint occurrence
//	lat_stop {constraint}  stop the oldest occurrence
//	kick {watchdog}        pet a watchdog timer (software tasks and ISRs)
//	repeat {count, body}   run the nested body count times
type Op struct {
	Op         string   `json:"op"`
	For        Duration `json:"for"`
	Event      string   `json:"event"`
	Queue      string   `json:"queue"`
	Shared     string   `json:"shared"`
	Constraint string   `json:"constraint"`
	IRQ        string   `json:"irq"`
	Channel    string   `json:"channel"`
	Server     string   `json:"server"`
	Trace      string   `json:"trace"`
	Watchdog   string   `json:"watchdog"`
	Value      int      `json:"value"`
	Count      int      `json:"count"`
	Body       []Op     `json:"body"`
}

// Validate re-checks a description after programmatic edits (e.g. a CLI
// override of every task's body form).
func (s *System) Validate() error { return s.validate() }

// Parse decodes and validates a scenario description.
func Parse(data []byte) (*System, error) {
	var s System
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
