package scenario

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/sim"
)

// Override is one run's configuration change to a parsed description: the
// edits design-space exploration makes between simulations (a sweep
// variant, the CLI's and the daemon's engine options, the explorer's
// release jitter). Zero fields keep the description's value; Horizon and
// Seed are pointers because zero is a meaningful value for both.
type Override struct {
	// Horizon replaces the simulation horizon.
	Horizon *sim.Time
	// Engine, Policy, Speed, Overheads, Cores and Domain replace the setting
	// of every processor. Quantum is the time slice set with Policy "rr".
	Engine    string
	Policy    string
	Quantum   sim.Time
	Speed     float64
	Overheads *OverheadSpec
	Cores     int
	Domain    string
	// TaskEngine replaces the engine of every software task.
	TaskEngine string
	// Seed replaces the seed of every fault.
	Seed *int64
	// Jitter sets the release-jitter bound of each named software task.
	Jitter map[string]sim.Time
}

// Check rejects override values no description could take, whatever it
// holds: an unknown engine, task-engine, policy or domain name, rr without a
// positive quantum, a negative speed or core count. Validation checks every
// processor's and task's own settings with it too.
func (o Override) Check() error {
	switch {
	case o.Engine != "" && o.Engine != "procedural" && o.Engine != "threaded":
		return fmt.Errorf("unknown engine %q (want procedural or threaded)", o.Engine)
	case o.TaskEngine != "" && o.TaskEngine != "goroutine" && o.TaskEngine != "continuation":
		return fmt.Errorf("unknown engine %q (want goroutine or continuation)", o.TaskEngine)
	case o.Policy != "" && !slices.Contains([]string{"priority", "fifo", "rr", "edf"}, o.Policy):
		return fmt.Errorf("unknown policy %q (want priority, fifo, rr or edf)", o.Policy)
	case o.Policy == "rr" && o.Quantum <= 0:
		return fmt.Errorf("policy %q requires a positive quantum", o.Policy)
	case o.Domain != "" && o.Domain != "partitioned" && o.Domain != "global":
		return fmt.Errorf("unknown domain %q (want partitioned or global)", o.Domain)
	case o.Speed < 0:
		return fmt.Errorf("speed factor %g must be positive", o.Speed)
	case o.Cores < 0:
		return fmt.Errorf("core count %d must be at least 1", o.Cores)
	}
	return nil
}

// With derives the description one run simulates: s with the override
// applied. It never writes to s. Only the slices it rewrites (Processors,
// Tasks, Faults) are copied; everything else is shared with s, read-only —
// Build, Partition and the parallel engine only read a description, so any
// number of derived descriptions may build and run concurrently. The result
// passes the same validation as Parse, so an override that breaks the
// description (a core count below a task's affinity, say) is an error, not
// a panic at elaboration.
func (s *System) With(o Override) (*System, error) {
	if err := o.Check(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	d := *s
	if o.Horizon != nil {
		d.Horizon = Duration(*o.Horizon)
	}
	if o.Engine != "" || o.Policy != "" || o.Speed != 0 || o.Overheads != nil || o.Cores != 0 || o.Domain != "" {
		d.Processors = slices.Clone(s.Processors)
		for i := range d.Processors {
			p := &d.Processors[i]
			set(&p.Engine, o.Engine)
			set(&p.Policy, o.Policy)
			if o.Policy == "rr" {
				p.Quantum = Duration(o.Quantum)
			}
			set(&p.Speed, o.Speed)
			if o.Overheads != nil {
				p.Overheads = *o.Overheads
			}
			set(&p.Cores, o.Cores)
			set(&p.Domain, o.Domain)
		}
	}
	if o.TaskEngine != "" || len(o.Jitter) > 0 {
		d.Tasks = slices.Clone(s.Tasks)
		for i := range d.Tasks {
			t := &d.Tasks[i]
			set(&t.Engine, o.TaskEngine)
			if b, ok := o.Jitter[t.Name]; ok {
				t.Jitter = Duration(b)
			}
		}
		for _, name := range slices.Sorted(maps.Keys(o.Jitter)) {
			if !slices.ContainsFunc(d.Tasks, func(t SWTask) bool { return t.Name == name }) {
				return nil, fmt.Errorf("scenario: jitter for unknown task %q", name)
			}
		}
	}
	if o.Seed != nil {
		d.Faults = slices.Clone(s.Faults)
		for i := range d.Faults {
			d.Faults[i].Seed = *o.Seed
		}
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// set overwrites *dst with v unless v is the zero value, which keeps it.
func set[T comparable](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
}
