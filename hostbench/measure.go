package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q in [0, 1]); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapAllocBytes is the cumulative number of bytes the Go heap has
// allocated, read without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuTicks reads the host's aggregate CPU time counters from /proc/stat: the
// steal ticks (time the hypervisor gave a virtual CPU of this host to
// something else) and the sum of all ticks. Zeroes where they are not
// available.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// timeSetups runs setup reps times, each after teardown (when not nil) of
// the previous instance and a full GC, and returns the median set-up time in
// seconds. Only setup itself is timed; the instance of the last rep stays
// live.
func timeSetups(reps int, setup func() error, teardown func()) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// span is one timed call into a layer, recorded by the benchmark's own code
// around the layer's public function.
type span struct {
	name       string
	op         int // op id; spans of one op share it
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary. It is safe for
// concurrent use (sweep variants end on worker goroutines).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	cost  time.Duration // host time spent inside the tracer itself
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	enter := time.Now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: enter.Sub(t.epoch)})
	t.cost += time.Since(enter)
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	enter := time.Now()
	t.mu.Lock()
	t.spans[id].end = enter.Sub(t.epoch)
	t.cost += time.Since(enter)
	t.mu.Unlock()
}

// add records a span timed elsewhere (for example from a server's own job
// timestamps).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: op, parent: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return id
}

// call times fn as a span.
func (t *tracer) call(name string, op, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// spanKey names the spans of one name in one op.
type spanKey struct {
	name string
	op   int
}

// selfMS returns the self time in ms of each span name in each op, in the
// order the keys first appear: the spans' durations minus the union of
// their children's intervals.
func (t *tracer) selfMS() (map[spanKey]float64, []spanKey) {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	acc := map[spanKey]float64{}
	var order []spanKey
	for i, s := range t.spans {
		self := s.end - s.start - covered(t.spans, children[i], s.start, s.end)
		k := spanKey{s.name, s.op}
		if _, ok := acc[k]; !ok {
			order = append(order, k)
		}
		acc[k] += msOf(self)
	}
	return acc, order
}

// selfByOp returns, per span name, the per-op self times in ms.
func (t *tracer) selfByOp() map[string][]float64 {
	acc, order := t.selfMS()
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], acc[k])
	}
	return out
}

// pairedSelfMS estimates the own time of a call whose children the tracer
// timed on another op: for each op i in whole, whole[i] minus the self times
// of the spans named children in op i+offset, and the median of those
// differences.
func (t *tracer) pairedSelfMS(whole map[int]float64, offset int, children []string) float64 {
	acc, _ := t.selfMS()
	var diffs []float64
	for op, ms := range whole {
		for _, n := range children {
			ms -= acc[spanKey{n, op + offset}]
		}
		diffs = append(diffs, ms)
	}
	return median(diffs)
}

// covered is the length of the union of the given spans' intervals clipped
// to [lo, hi].
func covered(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, id := range ids {
		a, b := max(spans[id].start, lo), min(spans[id].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// durations returns every span duration of the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, msOf(s.end-s.start))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, microsecond timestamps). Spans are packed onto lanes (tids) so
// that the events of each lane nest properly, which concurrent sweep
// variants need.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	idx := make([]int, len(t.spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := t.spans[idx[a]], t.spans[idx[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	var lanes [][]time.Duration // per lane, the stack of open span ends
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, i := range idx {
		s := t.spans[i]
		lane := -1
		for l := range lanes {
			st := lanes[l]
			for len(st) > 0 && st[len(st)-1] <= s.start {
				st = st[:len(st)-1]
			}
			lanes[l] = st
			if len(st) == 0 || st[len(st)-1] >= s.end {
				lane = l
				break
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s.end)
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: lane,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "op": s.op, "parent": s.parent, "parentName": parent},
		})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
