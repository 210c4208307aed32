package trace

import (
	"sort"

	"repro/internal/sim"
)

// MergeRecorders interleaves the per-shard trace recorders of a parallel run
// into one chronological recorder for rendering, as if a single recorder had
// observed the whole system. end becomes the merged recorder's clock value
// (the aggregate simulated end time). Each category merges by timestamp with
// ties kept in shard order; task and object first-appearance orders are
// re-derived from the merged streams, so rendering is deterministic for a
// given shard assignment.
func MergeRecorders(recs []*Recorder, end sim.Time) *Recorder {
	out := NewRecorder(func() sim.Time { return end })
	for _, r := range recs {
		if r == nil {
			continue
		}
		out.changes = append(out.changes, r.changes...)
		out.overheads = append(out.overheads, r.overheads...)
		out.accesses = append(out.accesses, r.accesses...)
		out.depths = append(out.depths, r.depths...)
		out.faults = append(out.faults, r.faults...)
		out.migrations = append(out.migrations, r.migrations...)
	}
	// Per-shard streams are already chronological; a stable sort by
	// timestamp interleaves them while keeping shard order on ties.
	sort.SliceStable(out.changes, func(i, j int) bool { return out.changes[i].At < out.changes[j].At })
	sort.SliceStable(out.overheads, func(i, j int) bool { return out.overheads[i].Start < out.overheads[j].Start })
	sort.SliceStable(out.accesses, func(i, j int) bool { return out.accesses[i].At < out.accesses[j].At })
	sort.SliceStable(out.depths, func(i, j int) bool { return out.depths[i].At < out.depths[j].At })
	sort.SliceStable(out.faults, func(i, j int) bool { return out.faults[i].At < out.faults[j].At })
	sort.SliceStable(out.migrations, func(i, j int) bool { return out.migrations[i].At < out.migrations[j].At })

	for i := range out.changes {
		c := &out.changes[i]
		c.task = int32(out.noteTask(c.Task))
	}
	// Objects are noted by both accesses and depth samples; walk the two
	// merged streams in tandem so first-appearance order follows the trace
	// (depth samples win ties: relations record their initial depth at
	// creation, before anything accesses them).
	ai, di := 0, 0
	for ai < len(out.accesses) || di < len(out.depths) {
		if di < len(out.depths) && (ai >= len(out.accesses) || out.depths[di].At <= out.accesses[ai].At) {
			d := &out.depths[di]
			d.object = int32(out.noteObject(d.Object))
			di++
			continue
		}
		a := &out.accesses[ai]
		a.object = int32(out.noteObject(a.Object))
		ai++
	}
	return out
}
