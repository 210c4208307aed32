package trace

import (
	"cmp"
	"slices"

	"repro/internal/sim"
)

// MergeRecorders interleaves the per-shard trace recorders of a parallel run
// into one chronological recorder for rendering, as if a single recorder had
// observed the whole system. end becomes the merged recorder's clock value
// (the aggregate simulated end time). Each category merges by timestamp with
// ties kept in shard order; task and object first-appearance orders are
// re-derived from the merged streams, so rendering is deterministic for a
// given shard assignment.
//
// The merge is one k-way pass per stream over the shard streams. Each shard
// name is interned into the merged table once, and records are renamed
// through the resulting per-shard handle map.
func MergeRecorders(recs []*Recorder, end sim.Time) *Recorder {
	out := NewRecorder(func() sim.Time { return end })
	var shards []*Recorder
	var remap [][]Name // per shard: shard-local handle -> merged handle
	for _, r := range recs {
		if r == nil {
			continue
		}
		m := make([]Name, len(r.names))
		for h, e := range r.names {
			m[h] = out.Intern(e.s)
		}
		shards, remap = append(shards, r), append(remap, m)
	}

	mergeStream(&out.changes, streamsOf(shards, func(r *Recorder) *stream[stateRec] { return &r.changes }), nil, remap)
	// Overheads are appended on completion, so a shard with several
	// processors or cores holds them out of start order: such a shard is
	// read in a stable start order instead.
	starts := make([][]int32, len(shards))
	for k, r := range shards {
		starts[k] = startOrder(&r.overheads)
	}
	mergeStream(&out.overheads, streamsOf(shards, func(r *Recorder) *stream[overheadRec] { return &r.overheads }), starts, remap)
	mergeStream(&out.accesses, streamsOf(shards, func(r *Recorder) *stream[accessRec] { return &r.accesses }), nil, remap)
	mergeStream(&out.depths, streamsOf(shards, func(r *Recorder) *stream[depthRec] { return &r.depths }), nil, remap)
	mergeStream(&out.faults, streamsOf(shards, func(r *Recorder) *stream[faultRec] { return &r.faults }), nil, remap)
	mergeStream(&out.migrations, streamsOf(shards, func(r *Recorder) *stream[migrationRec] { return &r.migrations }), nil, remap)

	for _, c := range out.changes.all {
		out.noteTask(c.task)
	}
	// Objects are noted by both accesses and depth samples; walk the two
	// merged streams in tandem so first-appearance order follows the trace
	// (depth samples win ties: relations record their initial depth at
	// creation, before anything accesses them).
	ai, di := 0, 0
	for ai < out.accesses.len() || di < out.depths.len() {
		if di < out.depths.len() && (ai >= out.accesses.len() || out.depths.at(di).at <= out.accesses.at(ai).at) {
			out.noteObject(out.depths.at(di).object)
			di++
			continue
		}
		out.noteObject(out.accesses.at(ai).object)
		ai++
	}
	return out
}

// mergeable is a stored record type the shard merge can order and rename.
type mergeable[T any] interface {
	*T
	time() sim.Time  // the instant the merge orders by
	rename(m []Name) // maps the record's shard-local handles through m
}

func (c *stateRec) time() sim.Time     { return c.at }
func (o *overheadRec) time() sim.Time  { return o.start }
func (a *accessRec) time() sim.Time    { return a.at }
func (d *depthRec) time() sim.Time     { return d.at }
func (f *faultRec) time() sim.Time     { return f.at }
func (m *migrationRec) time() sim.Time { return m.at }

func (c *stateRec) rename(m []Name)    { c.task, c.cpu = m[c.task], m[c.cpu] }
func (o *overheadRec) rename(m []Name) { o.cpu, o.task = m[o.cpu], m[o.task] }
func (a *accessRec) rename(m []Name)   { a.actor, a.object = m[a.actor], m[a.object] }
func (d *depthRec) rename(m []Name)    { d.object = m[d.object] }
func (f *faultRec) rename(m []Name) {
	f.task, f.label, f.detail = m[f.task], m[f.label], m[f.detail]
}
func (r *migrationRec) rename(m []Name) { r.task, r.cpu = m[r.task], m[r.cpu] }

// streamsOf returns one stream of every shard.
func streamsOf[T any](shards []*Recorder, s func(*Recorder) *stream[T]) []*stream[T] {
	out := make([]*stream[T], len(shards))
	for k, r := range shards {
		out[k] = s(r)
	}
	return out
}

// mergeStream appends the records of srcs to dst in time order, ties in
// shard order, renaming each through its shard's handle map. order[k], when
// set, is the index order to read shard k in (append order otherwise); the
// times read from one shard must not decrease.
func mergeStream[T any, P mergeable[T]](dst *stream[T], srcs []*stream[T], order [][]int32, remap [][]Name) {
	pos := make([]int, len(srcs))
	head := func(k int) P { // shard k's next record, nil when exhausted
		i := pos[k]
		if i >= srcs[k].len() {
			return nil
		}
		if order != nil && order[k] != nil {
			i = int(order[k][i])
		}
		return P(srcs[k].at(i))
	}
	heads := make([]P, len(srcs))
	for k := range srcs {
		heads[k] = head(k)
	}
	for {
		best := -1
		for k, h := range heads {
			if h != nil && (best < 0 || h.time() < heads[best].time()) {
				best = k
			}
		}
		if best < 0 {
			return
		}
		rec := *heads[best]
		P(&rec).rename(remap[best])
		dst.push(rec)
		pos[best]++
		heads[best] = head(best)
	}
}

// startOrder returns the indices of s's overheads in a stable order by
// start, or nil when append order already is one.
func startOrder(s *stream[overheadRec]) []int32 {
	var prev sim.Time
	sorted := true
	for _, o := range s.all {
		if o.start < prev {
			sorted = false
			break
		}
		prev = o.start
	}
	if sorted {
		return nil
	}
	idx := make([]int32, s.len())
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(s.at(int(a)).start, s.at(int(b)).start) })
	return idx
}
