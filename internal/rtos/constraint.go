package rtos

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// ConstraintSet verifies timing constraints during the simulation. The
// paper's conclusion names "automatic verification of timing constraints by
// simulation after setting these constraints in the initial system model" as
// future work; this implements it: declare latency constraints, mark their
// start and end points in the model code, and read the violations after the
// run. Periodic tasks report deadline misses here automatically.
type ConstraintSet struct {
	sys        *System
	monitors   []*Constraint
	violations []Violation
}

// Violation is one recorded timing-constraint violation.
type Violation struct {
	// Name identifies the constraint (or the periodic task for a deadline
	// miss).
	Name string
	// At is the instant the violation was detected.
	At sim.Time
	// Limit is the allowed latency or the absolute deadline.
	Limit sim.Time
	// Measured is the observed latency or completion time.
	Measured sim.Time
	// Task names the periodic task of a deadline miss; empty for a latency
	// constraint, whatever its name.
	Task string
}

func (v Violation) String() string {
	if v.Measured == 0 {
		return fmt.Sprintf("%s: work incomplete at its deadline %v", v.Name, v.Limit)
	}
	return fmt.Sprintf("%s: measured %v exceeds limit %v (at %v)", v.Name, v.Measured, v.Limit, v.At)
}

// Constraint is one end-to-end latency constraint: the time between a Start
// and the matching Stop must not exceed the limit. Starts and stops match
// first-in-first-out, so pipelined occurrences are measured independently.
type Constraint struct {
	set    *ConstraintSet
	name   string
	limit  sim.Time
	starts fifo.Queue[sim.Time]

	count      int
	violations int
	worst      sim.Time
	total      sim.Time
	samples    []sim.Time
}

// NewLatency declares a latency constraint: every Start/Stop pair must
// complete within limit.
func (cs *ConstraintSet) NewLatency(name string, limit sim.Time) *Constraint {
	if limit <= 0 {
		panic("rtos: constraint limit must be positive")
	}
	c := &Constraint{set: cs, name: name, limit: limit}
	cs.monitors = append(cs.monitors, c)
	return c
}

// Start marks the beginning of an occurrence (e.g. the external event the
// system must react to).
func (c *Constraint) Start() {
	c.starts.Push(c.set.sys.Now())
}

// Stop marks the end of the oldest outstanding occurrence and checks the
// latency. Calling Stop with no outstanding Start panics (a model bug).
func (c *Constraint) Stop() {
	if c.starts.Empty() {
		panic(fmt.Sprintf("rtos: constraint %q stopped with no outstanding start", c.name))
	}
	start := c.starts.Pop()
	now := c.set.sys.Now()
	lat := now - start
	c.count++
	c.total += lat
	c.samples = append(c.samples, lat)
	if lat > c.worst {
		c.worst = lat
	}
	if lat > c.limit {
		c.violations++
		c.set.violations = append(c.set.violations, Violation{
			Name: c.name, At: now, Limit: c.limit, Measured: lat,
		})
	}
}

// Name returns the constraint's name.
func (c *Constraint) Name() string { return c.name }

// Count returns the number of completed occurrences.
func (c *Constraint) Count() int { return c.count }

// ViolationCount returns the number of occurrences that exceeded the limit.
func (c *Constraint) ViolationCount() int { return c.violations }

// Worst returns the worst observed latency.
func (c *Constraint) Worst() sim.Time { return c.worst }

// Mean returns the mean observed latency.
func (c *Constraint) Mean() sim.Time {
	if c.count == 0 {
		return 0
	}
	return c.total / sim.Time(c.count)
}

// Percentile returns the q-quantile (0 < q <= 1) of the observed latencies
// by nearest-rank; zero when nothing completed yet.
func (c *Constraint) Percentile(q float64) sim.Time {
	if len(c.samples) == 0 {
		return 0
	}
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("rtos: percentile %v out of (0,1]", q))
	}
	sorted := append([]sim.Time(nil), c.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Histogram renders a textual latency histogram with the given number of
// buckets over [0, worst].
func (c *Constraint) Histogram(buckets int) string {
	if buckets <= 0 || len(c.samples) == 0 {
		return "(no samples)\n"
	}
	width := c.worst/sim.Time(buckets) + 1
	counts := make([]int, buckets)
	maxCount := 0
	for _, s := range c.samples {
		i := int(s / width)
		if i >= buckets {
			i = buckets - 1
		}
		counts[i]++
		if counts[i] > maxCount {
			maxCount = counts[i]
		}
	}
	var b strings.Builder
	for i, n := range counts {
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", n*40/maxCount)
		}
		fmt.Fprintf(&b, "%12v..%-12v %6d %s\n",
			sim.Time(i)*width, sim.Time(i+1)*width, n, bar)
	}
	return b.String()
}

// report records a deadline miss detected at the deadline instant by a
// periodic task's watchdog; Measured zero marks "not completed by the
// deadline".
func (cs *ConstraintSet) report(task string, deadline, detected sim.Time) {
	cs.violations = append(cs.violations, Violation{
		Name: task + ".deadline", At: detected, Limit: deadline, Measured: 0, Task: task,
	})
}

// Violations returns every recorded violation in detection order.
func (cs *ConstraintSet) Violations() []Violation { return cs.violations }

// OK reports whether no constraint was violated.
func (cs *ConstraintSet) OK() bool { return len(cs.violations) == 0 }

// Report renders a per-constraint summary plus the violation list.
func (cs *ConstraintSet) Report() string {
	var b strings.Builder
	b.WriteString("Timing constraints:\n")
	if len(cs.monitors) == 0 && len(cs.violations) == 0 {
		b.WriteString("  (none declared)\n")
	}
	for _, c := range cs.monitors {
		fmt.Fprintf(&b, "  %-24s limit %-10v occurrences %-6d worst %-10v mean %-10v violations %d\n",
			c.name, c.limit, c.count, c.worst, c.Mean(), c.violations)
	}
	for _, v := range cs.violations {
		fmt.Fprintf(&b, "  VIOLATION %s\n", v)
	}
	return b.String()
}
