package explore

import (
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// Static commutativity analysis (the DPOR-style pruning rule). Two
// same-instant timed actions commute when the model elements they can touch
// are disjoint: a task's delay wakeup on cpu A cannot affect a hardware
// task's timer on an unrelated channel, so only one of their two orders is
// explored. The footprint of an action is derived from the scenario
// description — the owner's processor plus every object its body names in
// the scenario's op-reference table (comm objects, constraints, traces,
// irqs, watchdogs, servers) and the processor or bus those belong to —
// which over-approximates the dynamic footprint, keeping the pruning sound:
// actions are only declared commuting when no interleaving of them can
// diverge.

// footprints maps scenario-level owners (tasks, hardware tasks, processors,
// buses and every object an op can name) to their resource sets. An owner
// name shared by several of them gets the union of their sets.
type footprints struct {
	owners map[string][]string
}

// refKeys appends the resources an object stands for: itself (events,
// queues, shared variables and channels are all comm objects) and the
// processor or bus it belongs to.
func refKeys(out []string, k scenario.RefKind, name, owner string) []string {
	switch k {
	case scenario.RefEvent, scenario.RefQueue, scenario.RefShared, scenario.RefChannel:
		out = append(out, "obj:"+name)
	default:
		out = append(out, k.String()+":"+name)
	}
	switch {
	case owner == "":
	case k == scenario.RefChannel:
		out = append(out, "bus:"+owner)
	default:
		out = append(out, "cpu:"+owner)
	}
	return out
}

// newFootprints derives the owner resource sets from a scenario description.
func newFootprints(desc *scenario.System) *footprints {
	f := &footprints{owners: map[string][]string{}}
	objs := desc.Objects()
	add := func(owner string, body []scenario.Op, rs ...string) {
		scenario.EachRef(body, func(r scenario.Ref) {
			rs = refKeys(rs, r.Kind, r.Name, objs[r.Kind][r.Name])
		})
		f.owners[owner] = append(f.owners[owner], rs...)
	}
	for _, p := range desc.Processors {
		add(p.Name, nil, "cpu:"+p.Name)
	}
	for _, t := range desc.Tasks {
		add(t.Name, t.Body, "cpu:"+t.Processor)
	}
	for _, h := range desc.Hardware {
		add(h.Name, h.Body, "hw:"+h.Name)
	}
	for _, q := range desc.IRQs {
		add(q.Name, q.Body)
	}
	for _, b := range desc.Buses {
		add(b.Name, nil, "bus:"+b.Name)
	}
	// Constraints and traces have no timed actions of their own.
	for _, k := range []scenario.RefKind{scenario.RefEvent, scenario.RefQueue, scenario.RefShared,
		scenario.RefWatchdog, scenario.RefIRQ, scenario.RefServer, scenario.RefChannel} {
		for name, owner := range objs[k] {
			add(name, nil, refKeys(nil, k, name, owner)...)
		}
	}
	return f
}

// resources resolves a timed action to its owner's resource set, or nil for
// an unknown owner (which then conflicts with everything — sound, never
// unsound). Timed-action names are artifact names built from an owner plus
// dotted suffixes (task.delay, task.deadlineWatch, cpu.core1.quantum, the
// threaded engine's cpu.rtos thread), so resolution strips dotted suffixes
// until an owner matches.
func (f *footprints) resources(a sim.TimedAction) []string {
	name := a.Name
	for {
		if r, ok := f.owners[name]; ok {
			return r
		}
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			return nil
		}
		name = name[:i]
	}
}

// groups partitions a same-instant batch into conflict groups: actions in
// different groups touch disjoint resources and therefore commute, so only
// within-group orderings are enumerated. Groups are returned ordered by
// their first action index, members in index order — the canonical layout
// the mixed-radix decision encoding relies on.
func (f *footprints) groups(actions []sim.TimedAction) [][]int {
	n := len(actions)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	firstUse := map[string]int{}
	unknown := -1
	for i, a := range actions {
		rs := f.resources(a)
		if rs == nil {
			// Unresolvable owner: conflicts with everything.
			if unknown >= 0 {
				union(i, unknown)
			}
			unknown = i
			continue
		}
		for _, r := range rs {
			if j, ok := firstUse[r]; ok {
				union(i, j)
			} else {
				firstUse[r] = i
			}
		}
	}
	if unknown >= 0 {
		for i := 0; i < n; i++ {
			union(i, unknown)
		}
	}

	order := map[int]int{} // root -> group index
	var gs [][]int
	for i := 0; i < n; i++ {
		r := find(i)
		gi, ok := order[r]
		if !ok {
			gi = len(gs)
			order[r] = gi
			gs = append(gs, nil)
		}
		gs[gi] = append(gs[gi], i)
	}
	return gs
}
