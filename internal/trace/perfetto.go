package trace

import (
	"bufio"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

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
// The file is written by hand, one event at a time into a reused buffer,
// in exactly the layout encoding/json's indented encoder gives the
// equivalent struct: field order, one-space indent, omitted empty fields,
// sorted args keys, its float and string escaping rules and the trailing
// newline. writePerfettoReference (perfetto_ref_test.go) keeps the
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
)

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
// and the tid of the hardware task of that name, 0 until first use.
type perfettoIDs struct{ pid, hwTid int32 }

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
	var places []lastPlace // by task position
	if r != nil {
		end = r.End()
		places = make([]lastPlace, len(r.tasks))
		// Every transition closes at most one Running slice, so this bounds
		// the event count.
		b.events = make([]perfettoEvent, 0,
			r.changes.len()+r.overheads.len()+r.faults.len()+r.migrations.len()+len(opts.Misses))

		// Pass 1 — Running slices, scanning state changes chronologically and
		// closing each task's open Running interval at the next transition (or
		// at the trace end). open holds the index of each task's open Running
		// transition, -1 when none; openOrder lists tasks in order of their
		// first Running transition.
		open := make([]int, len(r.tasks))
		for i := range open {
			open[i] = -1
		}
		var openOrder []int32
		opened := make([]bool, len(r.tasks))
		for i, c := range r.changes.all {
			ti := r.names[c.task].task
			places[ti] = lastPlace{cpu: c.cpu, core: int(c.core), seen: true}
			if prev := open[ti]; prev >= 0 {
				if c.at > r.changes.at(prev).at {
					b.runningSlice(prev, c.at)
				}
				open[ti] = -1
			}
			if c.state == StateRunning {
				if !opened[ti] {
					opened[ti] = true
					openOrder = append(openOrder, ti)
				}
				open[ti] = i
			}
		}
		for _, ti := range openOrder {
			if prev := open[ti]; prev >= 0 && end > r.changes.at(prev).at {
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
			pid, tid := b.placeOf(places, r.name(f.task))
			b.add(eventFault, i, pid, tid, f.at, 0)
		}
		for i, m := range r.migrations.all {
			pid, tid := b.coreThread(m.cpu, int(m.to))
			b.add(eventMigration, i, pid, tid, m.at, 0)
		}
	}

	// Pass 4 — deadline-miss instants from the options.
	for i, m := range opts.Misses {
		pid, tid := b.placeOf(places, m.Task)
		b.add(eventMiss, i, pid, tid, m.At, 0)
	}

	// Chronological order by the exported timestamp, ties kept in build
	// order. Sorting 16-byte (ts, index) keys moves less memory than
	// sorting the events, and the index tie-break makes the unstable sort
	// give the stable order.
	type sortKey struct {
		ts float64
		i  int32
	}
	keys := make([]sortKey, len(b.events))
	for i := range b.events {
		keys[i] = sortKey{usec(b.events[i].at), int32(i)}
	}
	slices.SortFunc(keys, func(x, y sortKey) int {
		if x.ts != y.ts {
			if x.ts < y.ts {
				return -1
			}
			return 1
		}
		return int(x.i - y.i)
	})

	// A growable destination (bytes.Buffer, strings.Builder) reserves
	// about the file's size once, instead of doubling its way there under
	// the buffered writes, which allocated about four times the file. A
	// file that fits the write buffer reaches it in one exact write.
	const bufSize = 64 << 10
	if g, ok := w.(interface{ Grow(int) }); ok {
		if est := perfettoEventBytes*(len(b.events)+len(b.threads)+len(b.procs)) + 64; est > bufSize {
			g.Grow(est)
		}
	}

	// bufio.Writer errors are sticky: the first write error surfaces from
	// Flush, so the writes below need no checks of their own.
	p := perfettoWriter{bw: bufio.NewWriterSize(w, bufSize)}
	_, _ = p.bw.WriteString("{\n \"displayTimeUnit\": \"ns\",\n \"traceEvents\": [")
	// Metadata events (process and thread names) go first.
	for i, proc := range b.procs {
		name := proc.name
		if name == "" {
			name = "hardware"
		}
		p.open("", "M", 0, 0, i+1, 0, "process_name")
		p.argString("name", name)
		p.close()
	}
	for _, t := range b.threads {
		p.open("", "M", 0, 0, t.pid, t.tid, "thread_name")
		p.argString("name", t.name)
		p.close()
	}
	for _, k := range keys {
		p.event(r, opts, &b.events[k.i])
	}
	if p.events > 0 {
		_, _ = p.bw.WriteString("\n ")
	}
	_, _ = p.bw.WriteString("]\n}\n")
	return p.bw.Flush()
}

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
func (b *perfettoBuilder) placeOf(places []lastPlace, task string) (pid, tid int) {
	var p lastPlace
	var h Name
	if b.r != nil {
		if ti, ok := b.r.taskPos(task); ok {
			h, p = b.r.nameIndex[task], places[ti]
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

// perfettoWriter formats trace events one at a time into buf and hands each
// finished event to bw. The layout is encoding/json's indented one: events
// sit at depth 2, their fields at depth 3 and args entries at depth 4, one
// space per level.
type perfettoWriter struct {
	bw     *bufio.Writer
	buf    []byte
	events int // events written so far
	args   int // args entries in the current event
}

// event writes one slice or instant with the name and args of its record.
func (p *perfettoWriter) event(r *Recorder, opts PerfettoOptions, e *perfettoEvent) {
	pid, tid := int(e.pid), int(e.tid)
	switch e.kind {
	case eventTask:
		p.open("task", "X", e.at, e.dur, pid, tid, r.name(r.changes.at(int(e.rec)).task))
	case eventOverhead:
		o := r.overheads.at(int(e.rec))
		if o.task == 0 {
			p.open("overhead", "X", e.at, e.dur, pid, tid, o.kind.String())
		} else {
			p.open("overhead", "X", e.at, e.dur, pid, tid, o.kind.String(), " ", r.name(o.task))
		}
	case eventFault:
		f := r.faultRecord(r.faults.at(int(e.rec)))
		p.open("fault", "i", e.at, 0, pid, tid, f.Kind.String(), " ", f.Label)
		p.argString("detail", f.Detail)
		p.argString("task", f.Task)
	case eventMigration:
		m := r.migration(r.migrations.at(int(e.rec)))
		p.open("migration", "i", e.at, 0, pid, tid, "migrate ", m.Task)
		p.argInt("from", m.From)
		p.argString("task", m.Task)
		p.argInt("to", m.To)
	case eventMiss:
		m := &opts.Misses[e.rec]
		p.open("miss", "i", e.at, 0, pid, tid, "deadline-miss ", m.Task)
		p.argString("task", m.Task)
	}
	p.close()
}

// open starts an event and writes every field before args: the name (the
// concatenation of the given parts), the category unless empty, the phase,
// the timestamp, the duration on complete slices (ph "X"), pid and tid, and
// the process scope on instants (ph "i"). Escaping the name parts one by
// one equals escaping their concatenation, as every part but the last is
// ASCII.
func (p *perfettoWriter) open(cat, ph string, at, dur sim.Time, pid, tid int, name ...string) {
	b := p.buf[:0]
	if p.events > 0 {
		b = append(b, ',')
	}
	p.events++
	b = append(b, "\n  {\n   \"name\": \""...)
	for _, part := range name {
		b = appendJSONChars(b, part)
	}
	b = append(b, '"')
	if cat != "" {
		b = append(b, ",\n   \"cat\": \""...)
		b = append(b, cat...)
		b = append(b, '"')
	}
	b = append(b, ",\n   \"ph\": \""...)
	b = append(b, ph...)
	b = append(b, "\",\n   \"ts\": "...)
	b = appendUsec(b, at)
	if ph == "X" {
		b = appendUsec(append(b, ",\n   \"dur\": "...), dur)
	}
	b = strconv.AppendInt(append(b, ",\n   \"pid\": "...), int64(pid), 10)
	b = strconv.AppendInt(append(b, ",\n   \"tid\": "...), int64(tid), 10)
	if ph == "i" {
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
	p.buf = append(appendJSONChars(append(p.buf, '"'), val), '"')
}

func (p *perfettoWriter) argInt(key string, val int) {
	p.argKey(key)
	p.buf = strconv.AppendInt(p.buf, int64(val), 10)
}

// close ends the event and hands it to the buffered writer.
func (p *perfettoWriter) close() {
	if p.args > 0 {
		p.buf = append(p.buf, "\n   }"...)
		p.args = 0
	}
	p.buf = append(p.buf, "\n  }"...)
	_, _ = p.bw.Write(p.buf)
}

// appendUsec appends t in microseconds as encoding/json formats the float64
// usec(t). For 0 <= t < 1e15 that is the exact decimal t/1e6 without
// trailing zeros: such a decimal has at most 15 significant digits, and no
// other decimal of that length rounds to the same float64, so it is the
// shortest representation strconv would pick. Other values take the float
// path.
func appendUsec(b []byte, t sim.Time) []byte {
	if t < 0 || t >= 1e15 {
		return appendJSONFloat(b, usec(t))
	}
	b = strconv.AppendInt(b, int64(t/1e6), 10)
	frac := int64(t % 1e6)
	if frac == 0 {
		return b
	}
	var digits [7]byte
	n := len(digits)
	for i := 0; i < 6; i++ {
		n--
		digits[n] = byte('0' + frac%10)
		frac /= 10
	}
	digits[0] = '.'
	end := len(digits)
	for digits[end-1] == '0' {
		end--
	}
	return append(b, digits[:end]...)
}

// appendJSONFloat appends f as encoding/json formats a float64: shortest
// 'f' notation, switching to 'e' below 1e-6 and at or above 1e21, with a
// one-digit negative exponent written without its leading zero.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONChars appends s escaped as encoding/json escapes string
// contents (with HTML escaping on, its default): quote, backslash and
// control bytes, '<', '>' and '&', U+2028 and U+2029, and each byte of
// invalid UTF-8 as U+FFFD. The surrounding quotes are the caller's.
func appendJSONChars(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}
