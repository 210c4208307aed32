package trace

import (
	"fmt"
	"iter"
	"strings"

	"repro/internal/sim"
)

// Diff compares two recorded traces over [0, end] and returns a
// human-readable description of the first few behavioural divergences:
// differing task sets, diverging state segments, and differing overhead
// windows. Zero-length segments are ignored (they are bookkeeping noise
// whose ordering within one instant may legitimately differ). An empty
// result means the traces are behaviourally identical.
//
// Diff is the tool behind the engine-equivalence property tests: when the
// threaded and procedural RTOS models disagree, it pinpoints the first
// divergence instead of dumping both traces.
func Diff(a, b *Recorder, end sim.Time, maxFindings int) string {
	if maxFindings <= 0 {
		maxFindings = 10
	}
	var out []string
	add := func(format string, args ...any) bool {
		out = append(out, fmt.Sprintf(format, args...))
		return len(out) >= maxFindings
	}

	aTasks, bTasks := a.SortedTasks(), b.SortedTasks()
	taskSet := map[string]int{}
	for _, t := range aTasks {
		taskSet[t] |= 1
	}
	for _, t := range bTasks {
		taskSet[t] |= 2
	}
	for _, t := range aTasks {
		if taskSet[t] == 1 {
			if add("task %q only in the first trace", t) {
				return strings.Join(out, "\n")
			}
		}
	}
	for _, t := range bTasks {
		if taskSet[t] == 2 {
			if add("task %q only in the second trace", t) {
				return strings.Join(out, "\n")
			}
		}
	}

	segsA, segsB := a.segmentsByTask(end), b.segmentsByTask(end)
	for _, task := range aTasks {
		if taskSet[task] != 3 {
			continue
		}
		ta, _ := a.taskPos(task)
		tb, _ := b.taskPos(task)
		sa, sb := nonZero(segsA[ta]), nonZero(segsB[tb])
		n := min(len(sa), len(sb))
		for i := 0; i < n; i++ {
			if sa[i] != sb[i] {
				if add("task %q segment %d: %v[%v..%v] vs %v[%v..%v]",
					task, i,
					sa[i].State, sa[i].Start, sa[i].End,
					sb[i].State, sb[i].Start, sb[i].End) {
					return strings.Join(out, "\n")
				}
				break // later segments will cascade; report the first
			}
		}
		if len(sa) != len(sb) {
			if add("task %q has %d vs %d segments", task, len(sa), len(sb)) {
				return strings.Join(out, "\n")
			}
		}
	}

	oa, ob := nonZeroOverheads(a.Overheads(), end), nonZeroOverheads(b.Overheads(), end)
	n := min(len(oa), len(ob))
	for i := 0; i < n; i++ {
		if oa[i] != ob[i] {
			add("overhead %d: %s %s(%s)[%v..%v] vs %s %s(%s)[%v..%v]", i,
				oa[i].CPU, oa[i].Kind, oa[i].Task, oa[i].Start, oa[i].End,
				ob[i].CPU, ob[i].Kind, ob[i].Task, ob[i].Start, ob[i].End)
			break
		}
	}
	if len(oa) != len(ob) {
		add("overhead counts differ: %d vs %d", len(oa), len(ob))
	}
	return strings.Join(out, "\n")
}

func nonZero(segs []Segment) []Segment {
	out := segs[:0:0]
	for _, s := range segs {
		if s.End > s.Start {
			out = append(out, s)
		}
	}
	return out
}

func nonZeroOverheads(ov iter.Seq[OverheadSegment], end sim.Time) []OverheadSegment {
	var out []OverheadSegment
	for o := range ov {
		if o.End > o.Start && o.Start < end {
			out = append(out, o)
		}
	}
	return out
}
