package trace

import (
	"iter"
	"sort"

	"repro/internal/sim"
)

// StateChange is one task state transition.
type StateChange struct {
	At    sim.Time
	Task  string
	CPU   string // empty for hardware tasks
	Core  int    // core of the task's most recent dispatch; 0 on single-core CPUs
	State TaskState
}

// Migration is one task dispatch onto a different core than the previous
// one (multi-core global scheduling domain).
type Migration struct {
	At   sim.Time
	Task string
	CPU  string
	From int
	To   int
}

// OverheadSegment is one completed RTOS overhead interval on a processor.
type OverheadSegment struct {
	CPU   string
	Task  string // task saved/loaded; empty for a pure scheduling decision
	Core  int    // core the overhead was charged on; 0 on single-core CPUs
	Kind  OverheadKind
	Start sim.Time
	End   sim.Time
}

// Access is one interaction with a communication relation.
type Access struct {
	At     sim.Time
	Actor  string
	Object string
	Kind   AccessKind
}

// DepthSample is a change of a relation's occupancy (queue depth, lock
// holder count) used to compute utilization ratios.
type DepthSample struct {
	At       sim.Time
	Object   string
	Depth    int
	Capacity int
}

// FaultRecord is one fault-subsystem event: a fault injection, a recovery
// action, or a watchdog expiry.
type FaultRecord struct {
	At sim.Time
	// Kind classifies the event.
	Kind FaultEventKind
	// Task is the affected task (or the watchdog name for WatchdogFired).
	Task string
	// Label is a short machine-matchable identifier of the fault or
	// recovery action, e.g. "wcet-overrun", "crash", "miss-restart",
	// "watchdog-restart". The fault-tolerance metrics aggregate on it.
	Label string
	// Detail is a free-form human-readable elaboration.
	Detail string
}

// Name is a handle to a string in a Recorder's name table, issued by
// Recorder.Intern and valid only on that recorder. The zero Name is the
// empty string.
type Name int32

// The stored forms of the exported record types: the same fields with
// every string replaced by its Name handle, so no record holds a pointer.
// Cores, queue depths and capacities are held as int32.
type (
	stateRec struct {
		at        sim.Time
		task, cpu Name
		core      int32
		state     TaskState
	}
	overheadRec struct {
		start, end sim.Time
		cpu, task  Name
		core       int32
		kind       OverheadKind
	}
	accessRec struct {
		at            sim.Time
		actor, object Name
		kind          AccessKind
	}
	depthRec struct {
		at              sim.Time
		object          Name
		depth, capacity int32
	}
	faultRec struct {
		at                  sim.Time
		task, label, detail Name
		kind                FaultEventKind
	}
	migrationRec struct {
		at        sim.Time
		task, cpu Name
		from, to  int32
	}
)

// nameEntry is one interned string with its positions in the task and
// object first-appearance orders (-1 until it first appears as one).
type nameEntry struct {
	s         string
	task, obj int32
}

// Recorder accumulates the execution trace of a simulated system. All
// methods are safe to call on a nil Recorder (they do nothing), so model
// code can trace unconditionally and tracing is zero-cost when disabled.
//
// A Recorder is bound to a simulation clock at construction; record methods
// timestamp with the current simulated time. The trace grows with the
// simulation: every record is kept.
type Recorder struct {
	now func() sim.Time

	changes    stream[stateRec]
	overheads  stream[overheadRec]
	accesses   stream[accessRec]
	depths     stream[depthRec]
	faults     stream[faultRec]
	migrations stream[migrationRec]

	// names is the interned name table, indexed by Name; nameIndex maps a
	// string to its handle. tasks and objects hold the task and object
	// names in first-appearance order.
	names     []nameEntry
	nameIndex map[string]Name
	tasks     []string
	objects   []string
}

// NewRecorder creates a recorder reading timestamps from now (typically
// kernel.Now).
func NewRecorder(now func() sim.Time) *Recorder {
	return &Recorder{
		now:       now,
		names:     []nameEntry{{task: -1, obj: -1}},
		nameIndex: map[string]Name{"": 0},
	}
}

// Now returns the recorder's current timestamp source value.
func (r *Recorder) Now() sim.Time {
	if r == nil {
		return 0
	}
	return r.now()
}

// Intern returns the handle of s in the recorder's name table, adding s on
// first sight. Hot producers intern their names once and record through
// the handle-taking methods; a nil Recorder returns the zero Name.
func (r *Recorder) Intern(s string) Name {
	if r == nil {
		return 0
	}
	h, ok := r.nameIndex[s]
	if !ok {
		h = Name(len(r.names))
		r.names = append(r.names, nameEntry{s: s, task: -1, obj: -1})
		r.nameIndex[s] = h
	}
	return h
}

// name returns the string behind h.
func (r *Recorder) name(h Name) string { return r.names[h].s }

// noteTask places task in the first-appearance order on first sight.
func (r *Recorder) noteTask(task Name) {
	if e := &r.names[task]; e.task < 0 {
		e.task = int32(len(r.tasks))
		r.tasks = append(r.tasks, e.s)
	}
}

// noteObject places obj in the first-appearance order on first sight.
func (r *Recorder) noteObject(obj Name) {
	if e := &r.names[obj]; e.obj < 0 {
		e.obj = int32(len(r.objects))
		r.objects = append(r.objects, e.s)
	}
}

// TaskState records that task (on cpu, empty for hardware) entered state,
// on core 0. Multi-core callers use TaskStateOn.
func (r *Recorder) TaskState(task, cpu string, state TaskState) {
	r.TaskStateOn(task, cpu, 0, state)
}

// TaskStateOn records that task entered state on the given core of cpu.
func (r *Recorder) TaskStateOn(task, cpu string, core int, state TaskState) {
	r.RecordState(r.Intern(task), r.Intern(cpu), core, state)
}

// RecordState is TaskStateOn for interned task and cpu names.
func (r *Recorder) RecordState(task, cpu Name, core int, state TaskState) {
	if r == nil {
		return
	}
	r.noteTask(task)
	r.changes.push(stateRec{at: r.now(), task: task, cpu: cpu, core: int32(core), state: state})
}

// Migrate records that task's dispatch moved it from one core of cpu to
// another.
func (r *Recorder) Migrate(task, cpu string, from, to int) {
	if r == nil {
		return
	}
	r.migrations.push(migrationRec{
		at: r.now(), task: r.Intern(task), cpu: r.Intern(cpu), from: int32(from), to: int32(to),
	})
}

// Overhead records a completed RTOS overhead interval on core 0. Multi-core
// callers use OverheadOn.
func (r *Recorder) Overhead(cpu, task string, kind OverheadKind, start, end sim.Time) {
	r.OverheadOn(cpu, task, 0, kind, start, end)
}

// OverheadOn records a completed RTOS overhead interval on the given core.
func (r *Recorder) OverheadOn(cpu, task string, core int, kind OverheadKind, start, end sim.Time) {
	r.RecordOverhead(r.Intern(cpu), r.Intern(task), core, kind, start, end)
}

// RecordOverhead is OverheadOn for interned cpu and task names.
func (r *Recorder) RecordOverhead(cpu, task Name, core int, kind OverheadKind, start, end sim.Time) {
	if r == nil {
		return
	}
	r.overheads.push(overheadRec{start: start, end: end, cpu: cpu, task: task, core: int32(core), kind: kind})
}

// Access records an interaction between actor and a communication object.
func (r *Recorder) Access(actor, object string, kind AccessKind) {
	if r == nil {
		return
	}
	obj := r.Intern(object)
	r.noteObject(obj)
	r.accesses.push(accessRec{at: r.now(), actor: r.Intern(actor), object: obj, kind: kind})
}

// Fault records a fault-subsystem event (fault injection, recovery action,
// watchdog expiry) against a task.
func (r *Recorder) Fault(kind FaultEventKind, task, label, detail string) {
	if r == nil {
		return
	}
	r.faults.push(faultRec{
		at: r.now(), task: r.Intern(task), label: r.Intern(label), detail: r.Intern(detail), kind: kind,
	})
}

// Depth records a change of object's occupancy.
func (r *Recorder) Depth(object string, depth, capacity int) {
	if r == nil {
		return
	}
	obj := r.Intern(object)
	r.noteObject(obj)
	r.depths.push(depthRec{at: r.now(), object: obj, depth: int32(depth), capacity: int32(capacity)})
}

// Tasks returns the names of all traced tasks in first-appearance order.
func (r *Recorder) Tasks() []string {
	if r == nil {
		return nil
	}
	return r.tasks
}

// Objects returns the names of all traced communication objects in
// first-appearance order.
func (r *Recorder) Objects() []string {
	if r == nil {
		return nil
	}
	return r.objects
}

// faultRecord and migration convert a stored record to its exported form,
// resolving its names.
func (r *Recorder) faultRecord(f *faultRec) FaultRecord {
	return FaultRecord{At: f.at, Kind: f.kind, Task: r.name(f.task), Label: r.name(f.label), Detail: r.name(f.detail)}
}

func (r *Recorder) migration(m *migrationRec) Migration {
	return Migration{At: m.at, Task: r.name(m.task), CPU: r.name(m.cpu), From: int(m.from), To: int(m.to)}
}

// StateChanges yields all recorded state changes in chronological order.
func (r *Recorder) StateChanges() iter.Seq[StateChange] {
	return func(yield func(StateChange) bool) {
		if r == nil {
			return
		}
		for _, c := range r.changes.all {
			if !yield(StateChange{At: c.at, Task: r.name(c.task), CPU: r.name(c.cpu), Core: int(c.core), State: c.state}) {
				return
			}
		}
	}
}

// Overheads yields all recorded overhead segments.
func (r *Recorder) Overheads() iter.Seq[OverheadSegment] {
	return func(yield func(OverheadSegment) bool) {
		if r == nil {
			return
		}
		for _, o := range r.overheads.all {
			if !yield(OverheadSegment{CPU: r.name(o.cpu), Task: r.name(o.task), Core: int(o.core), Kind: o.kind, Start: o.start, End: o.end}) {
				return
			}
		}
	}
}

// Accesses yields all recorded communication accesses in chronological
// order.
func (r *Recorder) Accesses() iter.Seq[Access] {
	return func(yield func(Access) bool) {
		if r == nil {
			return
		}
		for _, a := range r.accesses.all {
			if !yield(Access{At: a.at, Actor: r.name(a.actor), Object: r.name(a.object), Kind: a.kind}) {
				return
			}
		}
	}
}

// Depths yields all recorded occupancy samples in chronological order.
func (r *Recorder) Depths() iter.Seq[DepthSample] {
	return func(yield func(DepthSample) bool) {
		if r == nil {
			return
		}
		for _, d := range r.depths.all {
			if !yield(DepthSample{At: d.at, Object: r.name(d.object), Depth: int(d.depth), Capacity: int(d.capacity)}) {
				return
			}
		}
	}
}

// FaultEvents yields all recorded fault-subsystem events in chronological
// order.
func (r *Recorder) FaultEvents() iter.Seq[FaultRecord] {
	return func(yield func(FaultRecord) bool) {
		if r == nil {
			return
		}
		for _, rec := range r.faults.all {
			if !yield(r.faultRecord(rec)) {
				return
			}
		}
	}
}

// Migrations yields all recorded core migrations in chronological order.
func (r *Recorder) Migrations() iter.Seq[Migration] {
	return func(yield func(Migration) bool) {
		if r == nil {
			return
		}
		for _, rec := range r.migrations.all {
			if !yield(r.migration(rec)) {
				return
			}
		}
	}
}

// Segment is a maximal interval during which a task stayed in one state.
// Core identifies the core a Running segment executed on (0 on single-core
// processors and for non-running states).
type Segment struct {
	Task  string
	State TaskState
	Core  int
	Start sim.Time
	End   sim.Time
}

// taskPos returns the position of the named task in Tasks(), or false for a
// name that never had a state change.
func (r *Recorder) taskPos(task string) (int32, bool) {
	h, ok := r.nameIndex[task]
	if !ok || r.names[h].task < 0 {
		return 0, false
	}
	return r.names[h].task, true
}

// Segments reconstructs the state intervals of one task from its recorded
// transitions, closing the final segment at end. Transitions after end are
// ignored; nil is returned for unknown tasks.
func (r *Recorder) Segments(task string, end sim.Time) []Segment {
	if r == nil {
		return nil
	}
	ti, ok := r.taskPos(task)
	if !ok {
		return nil
	}
	if segs := r.segmentsByTask(end)[ti]; len(segs) > 0 {
		return segs
	}
	return nil
}

// segmentsByTask reconstructs the state intervals of every traced task in
// one pass over the transitions: element i holds the segments of
// r.Tasks()[i]. Renderers that visit every task use it instead of calling
// Segments per task, which would rescan the whole trace for each one.
func (r *Recorder) segmentsByTask(end sim.Time) [][]Segment {
	if r == nil {
		return nil
	}
	// A task has at most as many segments as transitions: carve one backing
	// array into per-task slices of that capacity, so the appends below
	// never reallocate.
	size := make([]int, len(r.tasks))
	total := 0
	for _, c := range r.changes.all {
		if c.at <= end {
			size[r.names[c.task].task]++
			total++
		}
	}
	all := make([]Segment, total)
	groups := make([][]Segment, len(r.tasks))
	for ti, n := range size {
		groups[ti], all = all[:0:n], all[n:]
	}
	cur := make([]*stateRec, len(r.tasks)) // each task's latest transition
	for _, c := range r.changes.all {
		if c.at > end {
			continue
		}
		ti := r.names[c.task].task
		if prev := cur[ti]; prev != nil && c.at > prev.at {
			groups[ti] = append(groups[ti], Segment{Task: r.tasks[ti], State: prev.state, Core: int(prev.core), Start: prev.at, End: c.at})
		}
		cur[ti] = c
	}
	for ti, prev := range cur {
		if prev != nil && prev.at < end {
			groups[ti] = append(groups[ti], Segment{Task: r.tasks[ti], State: prev.state, Core: int(prev.core), Start: prev.at, End: end})
		}
	}
	return groups
}

// groupByTask buckets the records of s by the task each one names, keeping
// record order: element i holds the records of r.Tasks()[i]. Records naming
// no traced task are left out.
func groupByTask[T any](r *Recorder, s *stream[T], task func(*T) Name) [][]*T {
	groups := make([][]*T, len(r.tasks))
	for _, rec := range s.all {
		if ti := r.names[task(rec)].task; ti >= 0 {
			groups[ti] = append(groups[ti], rec)
		}
	}
	return groups
}

// End returns the timestamp of the last recorded item, i.e. the natural end
// of the observation window.
func (r *Recorder) End() sim.Time {
	if r == nil {
		return 0
	}
	var end sim.Time
	if c := r.changes.last(); c != nil {
		end = max(end, c.at)
	}
	for _, o := range r.overheads.all {
		end = max(end, o.end)
	}
	if a := r.accesses.last(); a != nil {
		end = max(end, a.at)
	}
	if d := r.depths.last(); d != nil {
		end = max(end, d.at)
	}
	if f := r.faults.last(); f != nil {
		end = max(end, f.at)
	}
	if m := r.migrations.last(); m != nil {
		end = max(end, m.at)
	}
	return end
}

// SortedTasks returns the task names sorted lexicographically; useful for
// stable report output.
func (r *Recorder) SortedTasks() []string {
	names := append([]string(nil), r.Tasks()...)
	sort.Strings(names)
	return names
}
