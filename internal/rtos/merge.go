package rtos

import (
	"sort"

	"repro/internal/trace"
)

// MergeConstraintSets combines the per-shard constraint sets of a parallel
// run into one set for reporting. Each declared constraint elaborates on
// exactly one shard, so monitors concatenate without conflict; nameOrder
// (the scenario's declaration order) restores the sequential report's
// monitor ordering, with any remaining monitors (e.g. programmatic ones)
// appended in shard order. Violations interleave by detection instant, which
// is how a sequential run would have recorded them; ties keep shard order.
// The merged set is read-only: it has no owning system, so Start/Stop on its
// monitors would observe the wrong clock.
func MergeConstraintSets(sets []*ConstraintSet, nameOrder []string) *ConstraintSet {
	out := &ConstraintSet{}
	byName := map[string]*Constraint{}
	var rest []*Constraint
	for _, cs := range sets {
		if cs == nil {
			continue
		}
		for _, m := range cs.monitors {
			named := false
			for _, want := range nameOrder {
				if m.name == want {
					named = true
					break
				}
			}
			if named {
				byName[m.name] = m
			} else {
				rest = append(rest, m)
			}
		}
		out.violations = append(out.violations, cs.violations...)
	}
	for _, name := range nameOrder {
		if m, ok := byName[name]; ok {
			out.monitors = append(out.monitors, m)
		}
	}
	out.monitors = append(out.monitors, rest...)
	sort.SliceStable(out.violations, func(i, j int) bool {
		return out.violations[i].At < out.violations[j].At
	})
	return out
}

// PerfettoMisses maps the set's periodic deadline-miss violations onto
// Perfetto instant markers.
func (cs *ConstraintSet) PerfettoMisses() []trace.MissMark {
	var misses []trace.MissMark
	for _, v := range cs.violations {
		if v.Task != "" {
			misses = append(misses, trace.MissMark{At: v.At, Task: v.Task})
		}
	}
	return misses
}
