package trace

import (
	"io"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/jsonfmt"
	"repro/internal/sim"
)

// This file exports the recorded trace in the Chrome trace_event JSON format,
// which the Perfetto UI (ui.perfetto.dev) and chrome://tracing both open.
//
// Mapping:
//   - each processor becomes one "process" (pid), each of its cores one
//     "thread" (tid = core+1), named by ph:"M" metadata events;
//   - hardware tasks share one extra "hardware" process with one thread per
//     task;
//   - every Running interval of a task becomes a complete slice (ph:"X") on
//     the core it executed on, every RTOS overhead interval a slice in the
//     "overhead" category;
//   - faults, deadline misses and core migrations become instant events
//     (ph:"i").
//
// Timestamps: trace_event wants microseconds, so ts = picoseconds / 1e6;
// displayTimeUnit "ns" makes the UI show nanosecond precision. Construction
// is fully deterministic (fixed pass order, ties in time broken by build
// order), so identical runs produce byte-identical files — the golden test
// pins this.
//
// The file is written by hand, appended one event at a time straight into
// the destination (see jsonfmt.Emit), in exactly the layout
// encoding/json's indented encoder gives the equivalent struct: field
// order, one-space indent, omitted empty fields, sorted args keys, its
// float and string escaping rules and the trailing newline. writePerfettoReference (perfetto_ref_test.go) keeps the
// encoding/json version of this exporter; the differential tests in
// perfetto_test.go and perfetto_corpus_test.go hold the two byte-identical.

// MissMark is one deadline miss to mark in the exported trace. Misses are
// detected by the constraint monitor above the trace layer, so the exporter
// receives them as options.
type MissMark struct {
	At   sim.Time
	Task string
}

// PerfettoOptions parameterizes WritePerfetto.
type PerfettoOptions struct {
	// Misses are deadline-miss instants to mark (rtos.System passes the
	// constraint monitor's deadline violations).
	Misses []MissMark
}

// eventKind says which record a trace event renders.
type eventKind uint8

const (
	eventTask      eventKind = iota // Running slice opened by r.changes.at(rec)
	eventOverhead                   // overhead slice r.overheads.at(rec)
	eventFault                      // instant for r.faults.at(rec)
	eventMigration                  // instant for r.migrations.at(rec)
	eventMiss                       // instant for opts.Misses[rec]
	eventMeta                       // process or thread name (written only)
)

// eventCats and eventPhases are each kind's category and phase.
var (
	eventCats   = [...]string{"task", "overhead", "fault", "migration", "miss", ""}
	eventPhases = [...]byte{'X', 'X', 'i', 'i', 'i', 'M'}
)

// eventHeads are the bytes each kind's event has between its name's
// contents and its timestamp: the closing quote, the category unless
// empty, and the phase.
var eventHeads = func() (heads [len(eventCats)]string) {
	for k, cat := range eventCats {
		h := `"`
		if cat != "" {
			h += ",\n   \"cat\": \"" + cat + `"`
		}
		heads[k] = h + ",\n   \"ph\": \"" + string(eventPhases[k]) + "\",\n   \"ts\": "
	}
	return heads
}()

// perfettoEvent is one non-metadata trace event awaiting output. Its name
// and args are formatted at write time from the record it points to, so
// building an event allocates nothing.
type perfettoEvent struct {
	at, dur  sim.Time // dur is used by slices only
	pid, tid int32
	kind     eventKind
	rec      int32
}

// perfettoThread is one named (pid, tid) thread.
type perfettoThread struct {
	pid, tid int
	name     string
}

// perfettoEventBytes is a generous mean size of one written event: the
// corpus files average 124 to 136 bytes per event.
const perfettoEventBytes = 144

// usec converts a simulated instant or duration to trace_event microseconds.
func usec(t sim.Time) float64 { return float64(t) / 1e6 }

// perfettoBuilder assigns stable pids/tids and accumulates events. Pids
// and hardware tids are kept by name handle, so the per-event lookups
// index slices.
type perfettoBuilder struct {
	r       *Recorder
	ids     []perfettoIDs     // by Name
	procs   []perfettoProcess // by pid-1
	threads []perfettoThread
	hwTids  int32
	events  []perfettoEvent
}

// perfettoIDs are the ids assigned to one name: the pid of the processor
// and the tid of the hardware task of that name, 0 until first use, and
// the end of the name's escaped form in the writer's slab.
type perfettoIDs struct{ pid, hwTid, esc int32 }

// perfettoProcess is one process: its name ("" is the hardware process)
// and which of its threads are named, by tid.
type perfettoProcess struct {
	name  string
	named []bool
}

func newPerfettoBuilder(r *Recorder) *perfettoBuilder {
	b := &perfettoBuilder{r: r, procs: make([]perfettoProcess, 0, 8)}
	if r != nil {
		b.ids = make([]perfettoIDs, len(r.names))
	}
	return b
}

// pid returns the process id of the processor named cpu ("" = hardware),
// registering it on first use.
func (b *perfettoBuilder) pid(cpu Name) int {
	if p := b.ids[cpu].pid; p != 0 {
		return int(p)
	}
	p := b.process(b.r.name(cpu))
	b.ids[cpu].pid = int32(p)
	return p
}

// process registers a new process and returns its id.
func (b *perfettoBuilder) process(name string) int {
	b.procs = append(b.procs, perfettoProcess{name: name})
	return len(b.procs)
}

// named reports whether (pid, tid) is already named, marking it named on
// first use; the caller then adds the name.
func (b *perfettoBuilder) named(pid, tid int) bool {
	p := &b.procs[pid-1]
	if tid < len(p.named) && p.named[tid] {
		return true
	}
	for len(p.named) <= tid {
		p.named = append(p.named, false)
	}
	p.named[tid] = true
	return false
}

// coreThread returns the tid for a core of a software processor.
func (b *perfettoBuilder) coreThread(cpu Name, core int) (pid, tid int) {
	pid, tid = b.pid(cpu), core+1
	if !b.named(pid, tid) {
		b.threads = append(b.threads, perfettoThread{pid, tid, "core" + strconv.Itoa(core)})
	}
	return pid, tid
}

// hwThread returns the tid for a hardware task (one thread per task in the
// shared hardware process).
func (b *perfettoBuilder) hwThread(task Name) (pid, tid int) {
	pid = b.pid(0)
	t := b.ids[task].hwTid
	if t == 0 {
		b.hwTids++
		t = b.hwTids
		b.ids[task].hwTid = t
	}
	if !b.named(pid, int(t)) {
		b.threads = append(b.threads, perfettoThread{pid, int(t), b.r.name(task)})
	}
	return pid, int(t)
}

// add appends one event of the given kind.
func (b *perfettoBuilder) add(kind eventKind, rec, pid, tid int, at, dur sim.Time) {
	b.events = append(b.events, perfettoEvent{
		at: at, dur: dur, pid: int32(pid), tid: int32(tid), kind: kind, rec: int32(rec),
	})
}

// WritePerfetto writes the trace in the Chrome trace_event JSON format. A nil
// recorder writes a valid empty trace.
func (r *Recorder) WritePerfetto(w io.Writer, opts PerfettoOptions) error {
	b := newPerfettoBuilder(r)
	var end sim.Time
	var tasks []perfettoTask // by task position
	if r != nil {
		end = r.End()
		tasks = make([]perfettoTask, len(r.tasks))
		// Every transition closes at most one Running slice, so this bounds
		// the event count.
		b.events = make([]perfettoEvent, 0,
			r.changes.len()+r.overheads.len()+r.faults.len()+r.migrations.len()+len(opts.Misses))

		// Pass 1 — Running slices, scanning state changes chronologically and
		// closing each task's open Running interval at the next transition (or
		// at the trace end). openOrder lists tasks in order of their first
		// Running transition.
		for i := range tasks {
			tasks[i].open = neverOpen
		}
		var openOrder []int32
		for i, c := range r.changes.all {
			ti := r.names[c.task].task
			t := &tasks[ti]
			t.place = lastPlace{cpu: c.cpu, core: int(c.core), seen: true}
			if prev := int(t.open); prev >= 0 {
				if c.at > r.changes.at(prev).at {
					b.runningSlice(prev, c.at)
				}
				t.open = -1
			}
			if c.state == StateRunning {
				if t.open == neverOpen {
					openOrder = append(openOrder, ti)
				}
				t.open = int32(i)
			}
		}
		for _, ti := range openOrder {
			if prev := int(tasks[ti].open); prev >= 0 && end > r.changes.at(prev).at {
				b.runningSlice(prev, end)
			}
		}

		// Pass 2 — RTOS overhead slices.
		for i, o := range r.overheads.all {
			pid, tid := b.coreThread(o.cpu, int(o.core))
			b.add(eventOverhead, i, pid, tid, o.start, o.end-o.start)
		}

		// Pass 3 — fault and migration instants.
		for i, f := range r.faults.all {
			pid, tid := b.placeOf(tasks, r.name(f.task))
			b.add(eventFault, i, pid, tid, f.at, 0)
		}
		for i, m := range r.migrations.all {
			pid, tid := b.coreThread(m.cpu, int(m.to))
			b.add(eventMigration, i, pid, tid, m.at, 0)
		}
	}

	// Pass 4 — deadline-miss instants from the options.
	for i, m := range opts.Misses {
		pid, tid := b.placeOf(tasks, m.Task)
		b.add(eventMiss, i, pid, tid, m.At, 0)
	}

	// Metadata events (process and thread names) go first, then the
	// events in chronological order.
	order := perfettoOrder(b.events)
	est := perfettoEventBytes*(len(b.events)+len(b.threads)+len(b.procs)) + 64
	return jsonfmt.Emit(w, est, func(dst []byte) []byte {
		p := perfettoWriter{buf: dst, r: r, ids: b.ids}
		p.escapeNames()
		p.buf = append(p.buf, "{\n \"displayTimeUnit\": \"ns\",\n \"traceEvents\": ["...)
		for i, proc := range b.procs {
			name := proc.name
			if name == "" {
				name = "hardware"
			}
			p.meta("process_name", i+1, 0, name)
		}
		for _, t := range b.threads {
			p.meta("thread_name", t.pid, t.tid, t.name)
		}
		for _, i := range order {
			p.event(opts, &b.events[i])
		}
		if p.events > 0 {
			p.buf = append(p.buf, "\n "...)
		}
		return append(p.buf, "]\n}\n"...)
	})
}

// perfettoOrder returns the indices of events in the order they are
// written: ascending exported timestamp usec(at), ties in build order. It
// is a stable LSD radix sort, one pass per byte, on keys in the same order
// as the timestamps, offset by the smallest; a byte every key shares is
// skipped. The keys are the IEEE bits of the timestamps mapped to unsigned
// integers in float order; the timestamps come from integers, so none is
// NaN or -0. When every instant lies in [0, 1e15) ps, usec is strictly
// increasing there (see appendUsec), so the picoseconds themselves are the
// keys: the same order, in fewer significant bytes.
func perfettoOrder(events []perfettoEvent) []int32 {
	n := len(events)
	idx := make([]int32, 2*n)
	src, dst := idx[:n], idx[n:]
	if n == 0 {
		return src
	}
	lo, hi := events[0].at, events[0].at
	for i := range events {
		lo, hi = min(lo, events[i].at), max(hi, events[i].at)
	}
	exact := lo >= 0 && hi < 1e15
	keys := make([]uint64, n)
	low, high := ^uint64(0), uint64(0)
	for i := range events {
		k := uint64(events[i].at)
		if !exact {
			k = math.Float64bits(usec(events[i].at))
			k ^= uint64(int64(k)>>63) | 1<<63 // negatives: flip all bits; others: the sign bit
		}
		keys[i] = k
		low, high = min(low, k), max(high, k)
	}
	var counts [8][256]int32
	digits := counts[:(bits.Len64(high-low)+7)/8]
	for i := range keys {
		keys[i] -= low
		for d, k := 0, keys[i]; d < len(digits); d, k = d+1, k>>8 {
			digits[d][byte(k)]++
		}
		src[i] = int32(i)
	}
	for d := range digits {
		c, shift := &digits[d], 8*d
		if c[byte(keys[0]>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for j, cj := range c {
			c[j], sum = sum, sum+cj
		}
		for _, i := range src {
			digit := byte(keys[i] >> shift)
			dst[c[digit]] = i
			c[digit]++
		}
		src, dst = dst, src
	}
	return src
}

// perfettoTask is one task's state in the build passes: where it was last
// seen scheduling-wise, and the index of its open Running transition, -1
// when none and neverOpen before its first.
type perfettoTask struct {
	place lastPlace
	open  int32
}

const neverOpen = -2

// lastPlace remembers where a task was last seen scheduling-wise.
type lastPlace struct {
	cpu  Name
	core int
	seen bool
}

// runningSlice emits the Running interval opened by state change open.
func (b *perfettoBuilder) runningSlice(open int, until sim.Time) {
	c := b.r.changes.at(open)
	var pid, tid int
	if c.cpu == 0 {
		pid, tid = b.hwThread(c.task)
	} else {
		pid, tid = b.coreThread(c.cpu, int(c.core))
	}
	b.add(eventTask, open, pid, tid, c.at, until-c.at)
}

// placeOf resolves the process/thread an instant for a task is shown on: the
// task's last known core, or the first process when the task is unknown.
func (b *perfettoBuilder) placeOf(tasks []perfettoTask, task string) (pid, tid int) {
	var p lastPlace
	var h Name
	if b.r != nil {
		if ti, ok := b.r.taskPos(task); ok {
			h, p = b.r.nameIndex[task], tasks[ti].place
		}
	}
	if p.seen {
		if p.cpu == 0 {
			return b.hwThread(h)
		}
		return b.coreThread(p.cpu, p.core)
	}
	if len(b.procs) > 0 {
		return 1, 1
	}
	if b.r != nil {
		if h, ok := b.r.nameIndex["unknown"]; ok {
			return b.pid(h), 1
		}
	}
	return b.process("unknown"), 1
}

// perfettoWriter appends trace events to buf one at a time. The layout is
// encoding/json's indented one: events sit at depth 2, their fields at
// depth 3 and args entries at depth 4, one space per level. Names held by
// the recorder are copied from slab, where each is escaped once per file.
type perfettoWriter struct {
	buf    []byte
	r      *Recorder
	ids    []perfettoIDs // by Name; esc locates the name in slab
	slab   []byte
	events int // events written so far
	args   int // args entries in the current event
}

// escapeNames escapes every interned name into the slab.
func (p *perfettoWriter) escapeNames() {
	if p.r == nil {
		return
	}
	size := 0
	for _, n := range p.r.names {
		size += len(n.s)
	}
	p.slab = make([]byte, 0, size)
	for h, n := range p.r.names {
		p.slab = jsonfmt.AppendChars(p.slab, n.s)
		p.ids[h].esc = int32(len(p.slab))
	}
}

// name appends the escaped name h.
func (p *perfettoWriter) name(h Name) {
	start := int32(0)
	if h > 0 {
		start = p.ids[h-1].esc
	}
	p.buf = append(p.buf, p.slab[start:p.ids[h].esc]...)
}

// event writes one slice or instant with the name and args of its record.
func (p *perfettoWriter) event(opts PerfettoOptions, e *perfettoEvent) {
	r, pid, tid := p.r, int(e.pid), int(e.tid)
	p.begin()
	switch e.kind {
	case eventTask:
		p.name(r.changes.at(int(e.rec)).task)
		p.fields(eventTask, e.at, e.dur, pid, tid)
	case eventOverhead:
		o := r.overheads.at(int(e.rec))
		p.buf = append(p.buf, o.kind.String()...) // kind names are plain ASCII
		if o.task != 0 {
			p.buf = append(p.buf, ' ')
			p.name(o.task)
		}
		p.fields(eventOverhead, e.at, e.dur, pid, tid)
	case eventFault:
		f := r.faults.at(int(e.rec))
		p.buf = append(append(p.buf, f.kind.String()...), ' ')
		p.name(f.label)
		p.fields(eventFault, e.at, 0, pid, tid)
		p.argName("detail", f.detail)
		p.argName("task", f.task)
	case eventMigration:
		m := r.migrations.at(int(e.rec))
		p.buf = append(p.buf, "migrate "...)
		p.name(m.task)
		p.fields(eventMigration, e.at, 0, pid, tid)
		p.argInt("from", int(m.from))
		p.argName("task", m.task)
		p.argInt("to", int(m.to))
	case eventMiss:
		m := &opts.Misses[e.rec]
		p.buf = jsonfmt.AppendChars(append(p.buf, "deadline-miss "...), m.Task)
		p.fields(eventMiss, e.at, 0, pid, tid)
		p.argString("task", m.Task)
	}
	p.close()
}

// meta writes one metadata event (ph "M") naming a process or thread.
func (p *perfettoWriter) meta(kind string, pid, tid int, name string) {
	p.begin()
	p.buf = append(p.buf, kind...)
	p.fields(eventMeta, 0, 0, pid, tid)
	p.argString("name", name)
	p.close()
}

// begin starts an event up to the contents of its name string, which the
// caller appends, escaped, before calling fields.
func (p *perfettoWriter) begin() {
	if p.events > 0 {
		p.buf = append(p.buf, ',')
	}
	p.events++
	p.buf = append(p.buf, "\n  {\n   \"name\": \""...)
}

// fields ends the name and writes every field of a kind's event before
// args: the category unless empty, the phase, the timestamp, the duration
// on complete slices (ph "X"), pid and tid, and the process scope on
// instants (ph "i").
func (p *perfettoWriter) fields(kind eventKind, at, dur sim.Time, pid, tid int) {
	b := appendUsec(append(p.buf, eventHeads[kind]...), at)
	ph := eventPhases[kind]
	if ph == 'X' {
		b = appendUsec(append(b, ",\n   \"dur\": "...), dur)
	}
	b = strconv.AppendInt(append(b, ",\n   \"pid\": "...), int64(pid), 10)
	b = strconv.AppendInt(append(b, ",\n   \"tid\": "...), int64(tid), 10)
	if ph == 'i' {
		b = append(b, ",\n   \"s\": \"p\""...)
	}
	p.buf = b
}

// argKey starts one args entry. Callers add entries in key order, the
// order encoding/json writes map keys in.
func (p *perfettoWriter) argKey(key string) {
	if p.args == 0 {
		p.buf = append(p.buf, ",\n   \"args\": {"...)
	} else {
		p.buf = append(p.buf, ',')
	}
	p.args++
	p.buf = append(p.buf, "\n    \""...)
	p.buf = append(p.buf, key...)
	p.buf = append(p.buf, "\": "...)
}

func (p *perfettoWriter) argString(key, val string) {
	p.argKey(key)
	p.buf = jsonfmt.AppendString(p.buf, val)
}

func (p *perfettoWriter) argName(key string, val Name) {
	p.argKey(key)
	p.buf = append(p.buf, '"')
	p.name(val)
	p.buf = append(p.buf, '"')
}

func (p *perfettoWriter) argInt(key string, val int) {
	p.argKey(key)
	p.buf = strconv.AppendInt(p.buf, int64(val), 10)
}

// close ends the event.
func (p *perfettoWriter) close() {
	if p.args > 0 {
		p.buf = append(p.buf, "\n   }"...)
		p.args = 0
	}
	p.buf = append(p.buf, "\n  }"...)
}

// appendUsec appends t in microseconds as encoding/json formats the float64
// usec(t). For 0 <= t < 1e15 that is the exact decimal t/1e6 without
// trailing zeros: such a decimal has at most 15 significant digits, and no
// other decimal of that length rounds to the same float64, so it is the
// shortest representation strconv would pick. Other values take the float
// path.
func appendUsec(b []byte, t sim.Time) []byte {
	if t < 0 || t >= 1e15 {
		return jsonfmt.AppendFloat(b, usec(t))
	}
	var d [24]byte
	i, whole, frac := len(d), uint64(t)/1e6, uint64(t)%1e6
	if frac != 0 {
		n := 6
		for ; frac%10 == 0; n-- {
			frac /= 10
		}
		for ; n > 0; n-- {
			i--
			d[i] = byte('0' + frac%10)
			frac /= 10
		}
		i--
		d[i] = '.'
	}
	for {
		i--
		d[i] = byte('0' + whole%10)
		if whole /= 10; whole == 0 {
			return append(b, d[i:]...)
		}
	}
}
