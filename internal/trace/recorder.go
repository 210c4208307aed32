package trace

import (
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
	task  int32 // position of Task in the recorder's Tasks()
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
	object int32 // position of Object in the recorder's Objects()
}

// DepthSample is a change of a relation's occupancy (queue depth, lock
// holder count) used to compute utilization ratios.
type DepthSample struct {
	At       sim.Time
	Object   string
	Depth    int
	Capacity int
	object   int32 // position of Object in the recorder's Objects()
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

// Recorder accumulates the execution trace of a simulated system. All
// methods are safe to call on a nil Recorder (they do nothing), so model
// code can trace unconditionally and tracing is zero-cost when disabled.
//
// A Recorder is bound to a simulation clock at construction; record methods
// timestamp with the current simulated time. The trace grows with the
// simulation: every record is kept.
type Recorder struct {
	now func() sim.Time

	changes    []StateChange
	overheads  []OverheadSegment
	accesses   []Access
	depths     []DepthSample
	faults     []FaultRecord
	migrations []Migration

	// tasks and objects hold the names in first-appearance order; the
	// index maps give each name's position there, so renderers can keep
	// per-task and per-object state in slices.
	tasks     []string
	taskIndex map[string]int
	objects   []string
	objIndex  map[string]int
}

// NewRecorder creates a recorder reading timestamps from now (typically
// kernel.Now).
func NewRecorder(now func() sim.Time) *Recorder {
	return &Recorder{
		now:       now,
		taskIndex: make(map[string]int),
		objIndex:  make(map[string]int),
	}
}

// Now returns the recorder's current timestamp source value.
func (r *Recorder) Now() sim.Time {
	if r == nil {
		return 0
	}
	return r.now()
}

// TaskState records that task (on cpu, empty for hardware) entered state,
// on core 0. Multi-core callers use TaskStateOn.
func (r *Recorder) TaskState(task, cpu string, state TaskState) {
	r.TaskStateOn(task, cpu, 0, state)
}

// TaskStateOn records that task entered state on the given core of cpu.
func (r *Recorder) TaskStateOn(task, cpu string, core int, state TaskState) {
	if r == nil {
		return
	}
	ti := r.noteTask(task)
	r.changes = append(r.changes, StateChange{At: r.now(), Task: task, CPU: cpu, Core: core, State: state, task: int32(ti)})
}

// Migrate records that task's dispatch moved it from one core of cpu to
// another.
func (r *Recorder) Migrate(task, cpu string, from, to int) {
	if r == nil {
		return
	}
	r.migrations = append(r.migrations, Migration{
		At: r.now(), Task: task, CPU: cpu, From: from, To: to,
	})
}

// Migrations returns all recorded core migrations in chronological order.
func (r *Recorder) Migrations() []Migration {
	if r == nil {
		return nil
	}
	return r.migrations
}

// Overhead records a completed RTOS overhead interval on core 0. Multi-core
// callers use OverheadOn.
func (r *Recorder) Overhead(cpu, task string, kind OverheadKind, start, end sim.Time) {
	r.OverheadOn(cpu, task, 0, kind, start, end)
}

// OverheadOn records a completed RTOS overhead interval on the given core.
func (r *Recorder) OverheadOn(cpu, task string, core int, kind OverheadKind, start, end sim.Time) {
	if r == nil {
		return
	}
	r.overheads = append(r.overheads, OverheadSegment{
		CPU: cpu, Task: task, Core: core, Kind: kind, Start: start, End: end,
	})
}

// Access records an interaction between actor and a communication object.
func (r *Recorder) Access(actor, object string, kind AccessKind) {
	if r == nil {
		return
	}
	oi := r.noteObject(object)
	r.accesses = append(r.accesses, Access{At: r.now(), Actor: actor, Object: object, Kind: kind, object: int32(oi)})
}

// Fault records a fault-subsystem event (fault injection, recovery action,
// watchdog expiry) against a task.
func (r *Recorder) Fault(kind FaultEventKind, task, label, detail string) {
	if r == nil {
		return
	}
	r.faults = append(r.faults, FaultRecord{
		At: r.now(), Kind: kind, Task: task, Label: label, Detail: detail,
	})
}

// FaultEvents returns all recorded fault-subsystem events in chronological
// order.
func (r *Recorder) FaultEvents() []FaultRecord {
	if r == nil {
		return nil
	}
	return r.faults
}

// Depth records a change of object's occupancy.
func (r *Recorder) Depth(object string, depth, capacity int) {
	if r == nil {
		return
	}
	oi := r.noteObject(object)
	r.depths = append(r.depths, DepthSample{At: r.now(), Object: object, Depth: depth, Capacity: capacity, object: int32(oi)})
}

// noteTask registers task on first sight and returns its position in
// r.tasks.
func (r *Recorder) noteTask(task string) int {
	ti, ok := r.taskIndex[task]
	if !ok {
		ti = len(r.tasks)
		r.taskIndex[task] = ti
		r.tasks = append(r.tasks, task)
	}
	return ti
}

// noteObject registers obj on first sight and returns its position in
// r.objects.
func (r *Recorder) noteObject(obj string) int {
	oi, ok := r.objIndex[obj]
	if !ok {
		oi = len(r.objects)
		r.objIndex[obj] = oi
		r.objects = append(r.objects, obj)
	}
	return oi
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

// StateChanges returns all recorded state changes in chronological order.
func (r *Recorder) StateChanges() []StateChange {
	if r == nil {
		return nil
	}
	return r.changes
}

// Overheads returns all recorded overhead segments.
func (r *Recorder) Overheads() []OverheadSegment {
	if r == nil {
		return nil
	}
	return r.overheads
}

// Accesses returns all recorded communication accesses.
func (r *Recorder) Accesses() []Access {
	if r == nil {
		return nil
	}
	return r.accesses
}

// Depths returns all recorded occupancy samples.
func (r *Recorder) Depths() []DepthSample {
	if r == nil {
		return nil
	}
	return r.depths
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

// Segments reconstructs the state intervals of one task from its recorded
// transitions, closing the final segment at end. Transitions after end are
// ignored; nil is returned for unknown tasks.
func (r *Recorder) Segments(task string, end sim.Time) []Segment {
	if r == nil {
		return nil
	}
	ti, ok := r.taskIndex[task]
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
	for i := range r.changes {
		if r.changes[i].At <= end {
			size[r.changes[i].task]++
			total++
		}
	}
	all := make([]Segment, total)
	groups := make([][]Segment, len(r.tasks))
	for ti, n := range size {
		groups[ti], all = all[:0:n], all[n:]
	}
	cur := make([]*StateChange, len(r.tasks)) // each task's latest transition
	for i := range r.changes {
		c := &r.changes[i]
		if c.At > end {
			continue
		}
		if prev := cur[c.task]; prev != nil && c.At > prev.At {
			groups[c.task] = append(groups[c.task], Segment{Task: c.Task, State: prev.State, Core: prev.Core, Start: prev.At, End: c.At})
		}
		cur[c.task] = c
	}
	for ti, prev := range cur {
		if prev != nil && prev.At < end {
			groups[ti] = append(groups[ti], Segment{Task: prev.Task, State: prev.State, Core: prev.Core, Start: prev.At, End: end})
		}
	}
	return groups
}

// groupByTask buckets items by the task each one names, keeping item order:
// element i holds the items of r.Tasks()[i]. Items naming no traced task are
// left out.
func groupByTask[T any](r *Recorder, items []T, task func(*T) string) [][]*T {
	groups := make([][]*T, len(r.tasks))
	for i := range items {
		if ti, ok := r.taskIndex[task(&items[i])]; ok {
			groups[ti] = append(groups[ti], &items[i])
		}
	}
	return groups
}

// StateAt returns the state task was in at instant t (the state set by the
// latest transition at or before t), and false if the task had no transition
// yet at t.
func (r *Recorder) StateAt(task string, t sim.Time) (TaskState, bool) {
	if r == nil {
		return 0, false
	}
	state, found := TaskState(0), false
	for i := range r.changes {
		c := &r.changes[i]
		if c.Task != task {
			continue
		}
		if c.At > t {
			break
		}
		state, found = c.State, true
	}
	return state, found
}

// End returns the timestamp of the last recorded item, i.e. the natural end
// of the observation window.
func (r *Recorder) End() sim.Time {
	if r == nil {
		return 0
	}
	var end sim.Time
	if n := len(r.changes); n > 0 && r.changes[n-1].At > end {
		end = r.changes[n-1].At
	}
	for i := range r.overheads {
		if r.overheads[i].End > end {
			end = r.overheads[i].End
		}
	}
	if n := len(r.accesses); n > 0 && r.accesses[n-1].At > end {
		end = r.accesses[n-1].At
	}
	if n := len(r.depths); n > 0 && r.depths[n-1].At > end {
		end = r.depths[n-1].At
	}
	if n := len(r.faults); n > 0 && r.faults[n-1].At > end {
		end = r.faults[n-1].At
	}
	if n := len(r.migrations); n > 0 && r.migrations[n-1].At > end {
		end = r.migrations[n-1].At
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
