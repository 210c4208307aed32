package scenario

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// This file computes shard partitions for the parallel multi-kernel engine
// (internal/psim). A partition is only legal when the shards interact
// exclusively through latency-bearing bus channels: every other coupling —
// events, queues, shared variables, constraints, servers, IRQs, watchdogs,
// execution traces — forces the participants onto the same shard, because
// those objects are mutated synchronously with no simulated latency to hide
// the cross-kernel skew behind. The partitioner therefore first folds the
// scenario into "atoms" (maximal sets of processors and hardware tasks
// transitively connected by anything but a channel), then groups atoms by
// their shard labels, and finally merges small groups to meet a target
// count. Channels crossing the resulting cut become the shard links; their
// minimal bus transfer time is the conservative lookahead.

// ShardGroup is one shard of a partition plan: the processors and hardware
// tasks elaborated onto one kernel.
type ShardGroup struct {
	// Label is the scenario-provided shard label, when the group carries one.
	Label string
	// Processors and Hardware list the members in declaration order.
	Processors []string
	Hardware   []string
}

// ChannelRoute locates a channel in the plan: the shard its senders live on
// and the shard its receivers live on (equal for shard-local channels).
type ChannelRoute struct {
	From, To int
}

// ChannelLink is one cross-shard channel: messages sent on shard From
// surface on shard To no earlier than the sender's clock plus Lookahead
// (the channel's minimal bus transfer time).
type ChannelLink struct {
	Channel   string
	From, To  int
	Lookahead sim.Time
}

// ShardPlan is a validated partition of a scenario for the parallel engine.
// The per-kind maps assign every named object to its owning group, so a
// shard build can filter elaboration to exactly the local objects.
type ShardPlan struct {
	Groups  []ShardGroup
	Horizon sim.Time

	Events      map[string]int
	Queues      map[string]int
	Shared      map[string]int
	Constraints map[string]int
	Servers     map[string]int
	IRQs        map[string]int
	Watchdogs   map[string]int
	Buses       map[string]int

	// Channels routes every channel; Links lists only the cross-shard ones.
	Channels map[string]ChannelRoute
	Links    []ChannelLink
}

// dsu is a plain union-find over node indices.
type dsu struct{ parent []int }

func newDSU(n int) *dsu {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &dsu{parent: p}
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		// Keep the smaller root so atom ordering follows declaration order.
		if rb < ra {
			ra, rb = rb, ra
		}
		d.parent[rb] = ra
	}
}

// partitioner accumulates object usage while walking the scenario bodies.
// Nodes are processors (0..P-1) then hardware tasks (P..P+H-1).
type partitioner struct {
	d    *dsu
	objs Objects

	// users records, per object kind and name, the first node that uses the
	// object; subsequent users are unioned with it. Processor-owned objects
	// (servers, IRQs, watchdogs) are seeded with their processor.
	users [numRefKinds]map[string]int

	// chanSenders/chanReceivers record the first sender/receiver node per
	// channel; busSenders the first sender node per bus. Channels are the
	// cut-allowed edges, but all senders of one bus contend on its mutex,
	// so they must be co-located, as must all receivers of one channel
	// (they share its queue object).
	chanSenders, chanReceivers map[string]int
	busSenders                 map[string]int
}

func (p *partitioner) use(m map[string]int, name string, node int) {
	if first, ok := m[name]; ok {
		p.d.union(first, node)
		return
	}
	m[name] = node
}

func (p *partitioner) walkOps(node int, ops []Op) {
	EachRef(ops, func(r Ref) {
		switch r.Role {
		case RoleSend:
			p.use(p.chanSenders, r.Name, node)
			p.use(p.busSenders, p.objs[RefChannel][r.Name], node)
		case RoleRecv:
			p.use(p.chanReceivers, r.Name, node)
		default:
			p.use(p.users[r.Kind], r.Name, node)
		}
	})
}

// Partition computes the shard plan for this scenario. target selects the
// grouping: 0 groups by shard labels only (each unlabeled atom becomes its
// own shard), 1 collapses everything onto a single shard, and N > 1 merges
// the smallest groups until at most N remain. Atoms — processors and
// hardware tasks coupled by anything but a channel — are never split.
//
// A multi-shard plan additionally requires a finite horizon and a positive
// lookahead (bus arbitration plus per-message transfer time) on every
// cross-shard channel; violations are reported as errors rather than being
// silently run sequentially.
func (s *System) Partition(target int) (*ShardPlan, error) {
	if target < 0 {
		return nil, fmt.Errorf("scenario: negative shard count %d", target)
	}
	nproc := len(s.Processors)
	nodes := nproc + len(s.Hardware)
	if nodes == 0 {
		return nil, fmt.Errorf("scenario: nothing to partition (no processors or hardware tasks)")
	}
	p := &partitioner{
		d:             newDSU(nodes),
		objs:          s.Objects(),
		chanSenders:   map[string]int{},
		chanReceivers: map[string]int{},
		busSenders:    map[string]int{},
	}
	for k := range p.users {
		p.users[k] = map[string]int{}
	}
	procs := make(map[string]int, nproc)
	for i, cpu := range s.Processors {
		procs[cpu.Name] = i
	}

	// Objects anchored to a processor couple their users to that processor.
	for _, k := range []RefKind{RefServer, RefIRQ, RefWatchdog} {
		for name, cpu := range p.objs[k] {
			p.use(p.users[k], name, procs[cpu])
		}
	}
	for _, irq := range s.IRQs {
		p.walkOps(procs[irq.Processor], irq.Body)
	}
	for _, t := range s.Tasks {
		p.walkOps(procs[t.Processor], t.Body)
	}
	for i, h := range s.Hardware {
		p.walkOps(nproc+i, h.Body)
	}

	// Resolve atoms and their shard labels.
	atomOf := make([]int, nodes)        // node -> atom index
	var atomRoots []int                 // atom index -> root node
	rootAtom := make(map[int]int, 8)    // root node -> atom index
	atomLabel := make(map[int]string)   // atom index -> label
	atomLabelBy := make(map[int]string) // atom index -> processor that set it
	for n := 0; n < nodes; n++ {
		r := p.d.find(n)
		a, ok := rootAtom[r]
		if !ok {
			a = len(atomRoots)
			rootAtom[r] = a
			atomRoots = append(atomRoots, r)
		}
		atomOf[n] = a
	}
	for i, cpu := range s.Processors {
		if cpu.Shard == "" {
			continue
		}
		a := atomOf[i]
		if prev, ok := atomLabel[a]; ok && prev != cpu.Shard {
			return nil, fmt.Errorf(
				"scenario: processors %q (shard %q) and %q (shard %q) share synchronous state and cannot be placed on different shards",
				atomLabelBy[a], prev, cpu.Name, cpu.Shard)
		}
		atomLabel[a] = cpu.Shard
		atomLabelBy[a] = cpu.Name
	}

	// Form groups: atoms sharing a label coalesce; unlabeled atoms stand
	// alone. Group order follows first appearance (declaration order).
	groupOf := make([]int, len(atomRoots)) // atom -> group
	var groupLabels []string
	labelGroup := map[string]int{}
	for a := range atomRoots {
		if lbl, ok := atomLabel[a]; ok {
			if g, seen := labelGroup[lbl]; seen {
				groupOf[a] = g
				continue
			}
			labelGroup[lbl] = len(groupLabels)
			groupOf[a] = len(groupLabels)
			groupLabels = append(groupLabels, lbl)
			continue
		}
		groupOf[a] = len(groupLabels)
		groupLabels = append(groupLabels, "")
	}

	// Merge towards the target count: repeatedly fold the lightest group
	// into the next-lightest (weight = member count, ties by index so the
	// result is deterministic).
	ngroups := len(groupLabels)
	if target == 1 {
		for a := range groupOf {
			groupOf[a] = 0
		}
		ngroups = 1
	} else if target > 1 && ngroups > target {
		weight := make([]int, ngroups)
		for n := 0; n < nodes; n++ {
			weight[groupOf[atomOf[n]]]++
		}
		alias := make([]int, ngroups)
		for i := range alias {
			alias[i] = i
		}
		live := ngroups
		for live > target {
			lightest, second := -1, -1
			for g := 0; g < ngroups; g++ {
				if alias[g] != g {
					continue
				}
				switch {
				case lightest < 0 || weight[g] < weight[lightest]:
					second = lightest
					lightest = g
				case second < 0 || weight[g] < weight[second]:
					second = g
				}
			}
			// Fold into the lower index so group order stays stable.
			survivor, dead := lightest, second
			if survivor > dead {
				survivor, dead = dead, survivor
			}
			weight[survivor] += weight[dead]
			alias[dead] = survivor
			live--
		}
		resolve := func(g int) int {
			for alias[g] != g {
				g = alias[g]
			}
			return g
		}
		compact := map[int]int{}
		var order []int
		for g := 0; g < ngroups; g++ {
			r := resolve(g)
			if _, ok := compact[r]; !ok {
				compact[r] = len(order)
				order = append(order, r)
			}
		}
		for a := range groupOf {
			groupOf[a] = compact[resolve(groupOf[a])]
		}
		relabel := make([]string, len(order))
		for i, r := range order {
			relabel[i] = groupLabels[r]
		}
		groupLabels = relabel
		ngroups = len(order)
	}

	// Object ownership: the group of any user; unused objects land on
	// group 0 so they still elaborate exactly once.
	nodeGroup := func(n int) int { return groupOf[atomOf[n]] }
	owners := func(users map[string]int, names map[string]string) map[string]int {
		m := make(map[string]int, len(names))
		for name := range names {
			m[name] = 0
			if n, ok := users[name]; ok {
				m[name] = nodeGroup(n)
			}
		}
		return m
	}
	buses := make(map[string]string, len(s.Buses))
	for _, b := range s.Buses {
		buses[b.Name] = ""
	}
	plan := &ShardPlan{
		Groups:      make([]ShardGroup, ngroups),
		Horizon:     sim.Time(s.Horizon),
		Events:      owners(p.users[RefEvent], p.objs[RefEvent]),
		Queues:      owners(p.users[RefQueue], p.objs[RefQueue]),
		Shared:      owners(p.users[RefShared], p.objs[RefShared]),
		Constraints: owners(p.users[RefConstraint], p.objs[RefConstraint]),
		Servers:     owners(p.users[RefServer], p.objs[RefServer]),
		IRQs:        owners(p.users[RefIRQ], p.objs[RefIRQ]),
		Watchdogs:   owners(p.users[RefWatchdog], p.objs[RefWatchdog]),
		Buses:       owners(p.busSenders, buses),
		Channels:    map[string]ChannelRoute{},
	}
	for g := range plan.Groups {
		plan.Groups[g].Label = groupLabels[g]
	}
	for i, cpu := range s.Processors {
		g := nodeGroup(i)
		plan.Groups[g].Processors = append(plan.Groups[g].Processors, cpu.Name)
	}
	for i, h := range s.Hardware {
		g := nodeGroup(nproc + i)
		plan.Groups[g].Hardware = append(plan.Groups[g].Hardware, h.Name)
	}

	// Route channels and derive the cross-shard links.
	for _, c := range s.Channels {
		from, to := -1, -1
		if n, ok := p.chanSenders[c.Name]; ok {
			from = nodeGroup(n)
		}
		if n, ok := p.chanReceivers[c.Name]; ok {
			to = nodeGroup(n)
		}
		switch {
		case from < 0 && to < 0:
			from, to = plan.Buses[c.Bus], plan.Buses[c.Bus]
		case from < 0:
			from = to
		case to < 0:
			to = from
		}
		plan.Channels[c.Name] = ChannelRoute{From: from, To: to}
		if from != to {
			size := c.MessageBytes
			if size < 1 {
				size = 1
			}
			var def BusDef
			for _, b := range s.Buses {
				if b.Name == c.Bus {
					def = b
				}
			}
			la := sim.Time(def.Arbitration) + sim.Time(size)*sim.Time(def.PerByte)
			plan.Links = append(plan.Links, ChannelLink{
				Channel: c.Name, From: from, To: to, Lookahead: la,
			})
		}
	}
	sort.Slice(plan.Links, func(i, j int) bool { return plan.Links[i].Channel < plan.Links[j].Channel })

	if ngroups > 1 {
		if plan.Horizon <= 0 {
			return nil, fmt.Errorf("scenario: multi-shard simulation requires a finite horizon")
		}
		for _, l := range plan.Links {
			if l.Lookahead <= 0 {
				return nil, fmt.Errorf(
					"scenario: cross-shard channel %q has zero lookahead: its bus needs a positive arbitration or per-byte transfer time",
					l.Channel)
			}
		}
	}
	return plan, nil
}

// HasShardLabels reports whether any processor carries a shard label, which
// opts the scenario into the parallel engine even without a -shards flag.
func (s *System) HasShardLabels() bool {
	for _, cpu := range s.Processors {
		if cpu.Shard != "" {
			return true
		}
	}
	return false
}
