package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// TimelineOptions configures the ASCII TimeLine chart renderer.
type TimelineOptions struct {
	// Start and End bound the rendered window; End zero means the trace end.
	Start, End sim.Time
	// Width is the number of chart columns; zero means 100.
	Width int
	// ShowAccesses adds a marker row under each task with its communication
	// accesses (s=signal, w=wait, >=send, <=receive, R=read, W=write,
	// L=lock, U=unlock, b=blocked).
	ShowAccesses bool
	// Legend appends a glyph legend to the chart.
	Legend bool
}

// RenderTimeline draws the recorded trace as an ASCII TimeLine chart, the
// textual analogue of the paper's Figure 6/7: one row per task, one glyph per
// time cell showing the task's state ('#' running, 'r' ready, '-' waiting,
// 'm' waiting on a resource, 'o' RTOS overhead, '.' not yet created).
func (r *Recorder) RenderTimeline(opts TimelineOptions) string {
	if r == nil {
		return ""
	}
	end := opts.End
	if end == 0 {
		end = r.End()
	}
	start := opts.Start
	if end <= start {
		return ""
	}
	width := opts.Width
	if width <= 0 {
		width = 100
	}
	cell := (end - start + sim.Time(width) - 1) / sim.Time(width)
	if cell <= 0 {
		cell = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, "TimeLine %v .. %v (1 column = %v)\n", start, end, cell)

	nameWidth := 4
	for _, t := range r.Tasks() {
		if len(t) > nameWidth {
			nameWidth = len(t)
		}
	}

	// Time axis with tick marks every 10 columns.
	axis := make([]byte, width)
	for i := range axis {
		if i%10 == 0 {
			axis[i] = '|'
		} else {
			axis[i] = ' '
		}
	}
	fmt.Fprintf(&b, "%*s %s\n", nameWidth, "", string(axis))

	segs := r.segmentsByTask(end)
	overheads := groupByTask(r, &r.overheads, func(o *overheadRec) Name { return o.task })
	var accesses [][]*accessRec
	if opts.ShowAccesses {
		accesses = groupByTask(r, &r.accesses, func(a *accessRec) Name { return a.actor })
	}
	for ti, task := range r.Tasks() {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		// Paint state segments; the dominant state in a cell is the one
		// covering the start of the cell (states are painted in order, later
		// segments overwrite earlier cells they cover more of).
		for _, seg := range segs[ti] {
			if seg.End <= start || seg.Start >= end {
				continue
			}
			first := int((max(seg.Start, start) - start) / cell)
			last := int((min(seg.End, end) - start - 1) / cell)
			g := seg.State.Glyph()
			for i := first; i <= last && i < width; i++ {
				row[i] = g
			}
		}
		// Overlay overhead segments attributed to the task.
		for _, o := range overheads[ti] {
			if o.end <= start || o.start >= end {
				continue
			}
			first := int((max(o.start, start) - start) / cell)
			last := int((min(o.end, end) - start - 1) / cell)
			for c := first; c <= last && c < width; c++ {
				row[c] = 'o'
			}
		}
		fmt.Fprintf(&b, "%*s %s\n", nameWidth, task, string(row))

		if opts.ShowAccesses {
			marks := make([]byte, width)
			for i := range marks {
				marks[i] = ' '
			}
			for _, a := range accesses[ti] {
				if a.at < start || a.at >= end {
					continue
				}
				col := int((a.at - start) / cell)
				if col >= width {
					col = width - 1
				}
				marks[col] = accessGlyph(a.kind)
			}
			if strings.TrimSpace(string(marks)) != "" {
				fmt.Fprintf(&b, "%*s %s\n", nameWidth, "", string(marks))
			}
		}
	}

	if opts.Legend {
		b.WriteString("\nlegend: # running  r ready  - waiting  m waiting-resource  o rtos-overhead  . inactive\n")
		if opts.ShowAccesses {
			b.WriteString("access: s signal  w wait  > send  < receive  R read  W write  L lock  U unlock  b blocked\n")
		}
	}
	return b.String()
}

func accessGlyph(k AccessKind) byte {
	switch k {
	case AccessSignal:
		return 's'
	case AccessWait:
		return 'w'
	case AccessWakeup:
		return '^'
	case AccessSend:
		return '>'
	case AccessReceive:
		return '<'
	case AccessRead:
		return 'R'
	case AccessWrite:
		return 'W'
	case AccessLock:
		return 'L'
	case AccessUnlock:
		return 'U'
	case AccessBlocked:
		return 'b'
	}
	return '?'
}

// RenderChronology lists every recorded item in chronological order, one
// line per item. It is the precise, lossless companion of RenderTimeline and
// the form used by the experiment harness to verify figure annotations.
func (r *Recorder) RenderChronology() string {
	if r == nil {
		return ""
	}
	type line struct {
		at   sim.Time
		seq  int
		text string
	}
	var lines []line
	seq := 0
	for c := range r.StateChanges() {
		cpu := c.CPU
		if cpu == "" {
			cpu = "hw"
		}
		lines = append(lines, line{c.At, seq, fmt.Sprintf("%-12v %-10s %s -> %s", c.At, cpu, c.Task, c.State)})
		seq++
	}
	for o := range r.Overheads() {
		lines = append(lines, line{o.Start, seq, fmt.Sprintf("%-12v %-10s rtos %s (%s) %v..%v (%v)",
			o.Start, o.CPU, o.Kind, o.Task, o.Start, o.End, o.End-o.Start)})
		seq++
	}
	for a := range r.Accesses() {
		lines = append(lines, line{a.At, seq, fmt.Sprintf("%-12v %-10s %s %s %s", a.At, "comm", a.Actor, a.Kind, a.Object)})
		seq++
	}
	for f := range r.FaultEvents() {
		text := fmt.Sprintf("%-12v %-10s %s %s %s", f.At, "fault", f.Kind, f.Task, f.Label)
		if f.Detail != "" {
			text += " (" + f.Detail + ")"
		}
		lines = append(lines, line{f.At, seq, text})
		seq++
	}
	sort.SliceStable(lines, func(i, j int) bool {
		if lines[i].at != lines[j].at {
			return lines[i].at < lines[j].at
		}
		return lines[i].seq < lines[j].seq
	})
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l.text)
		b.WriteByte('\n')
	}
	return b.String()
}
