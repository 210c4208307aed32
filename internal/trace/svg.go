package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// SVGOptions configures the SVG TimeLine renderer.
type SVGOptions struct {
	// Start and End bound the rendered window; End zero means the trace end,
	// and a trace that ends at or before Start then renders an empty chart.
	Start, End sim.Time
	// Width is the chart width in pixels (default 1000).
	Width int
	// RowHeight is the per-task row height in pixels (default 26).
	RowHeight int
	// ShowAccesses draws communication accesses as markers.
	ShowAccesses bool
}

// State colours, chosen to echo a waveform viewer: running green, ready
// amber (waiting for the processor), waiting grey, resource-wait red,
// overhead violet.
var svgStateFill = map[TaskState]string{
	StateRunning:         "#4caf50",
	StateReady:           "#ffb300",
	StateWaiting:         "#b0bec5",
	StateWaitingResource: "#e53935",
	StateOverhead:        "#7e57c2",
}

// WriteSVG renders the recorded trace as an SVG TimeLine chart — the
// graphical analogue of the paper's Figures 6 and 7: one row per task,
// coloured state segments, violet RTOS-overhead overlays, and optional
// access markers. An explicit window with End <= Start is an error.
func (r *Recorder) WriteSVG(w io.Writer, opts SVGOptions) error {
	if r == nil {
		return nil
	}
	start, end := opts.Start, opts.End
	if end == 0 {
		end = max(r.End(), start)
	} else if end <= start {
		return fmt.Errorf("trace: empty SVG window [%v, %v]", start, end)
	}
	empty := end == start
	width := opts.Width
	if width <= 0 {
		width = 1000
	}
	rowH := opts.RowHeight
	if rowH <= 0 {
		rowH = 26
	}
	tasks := r.Tasks()
	// Core identity only clutters single-core charts; tag Running segments
	// once any change was recorded off core 0.
	multiCore := false
	for _, c := range r.changes.all {
		if c.core != 0 {
			multiCore = true
			break
		}
	}
	const labelW = 150
	const topH = 30
	chartW := width - labelW
	totalH := topH + rowH*len(tasks) + 40
	span := float64(end - start)
	x := func(t sim.Time) float64 {
		return float64(labelW) + float64(t-start)/span*float64(chartW)
	}

	var errOut error
	pf := func(format string, args ...any) {
		if errOut == nil {
			_, errOut = fmt.Fprintf(w, format, args...)
		}
	}

	pf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, totalH)
	pf(`<rect width="%d" height="%d" fill="#fafafa"/>`+"\n", width, totalH)
	pf(`<text x="%d" y="18" font-size="13">TimeLine %s .. %s</text>`+"\n", labelW, start, end)

	// Time grid: ~10 ticks.
	for i := 0; i <= 10 && !empty; i++ {
		t := start + sim.Time(float64(end-start)*float64(i)/10)
		gx := x(t)
		pf(`<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#ddd"/>`+"\n", gx, topH, gx, topH+rowH*len(tasks))
		pf(`<text x="%.1f" y="%d" fill="#666" font-size="9" text-anchor="middle">%s</text>`+"\n",
			gx, topH+rowH*len(tasks)+12, t)
	}

	segs := r.segmentsByTask(end)
	overheads := groupByTask(r, &r.overheads, func(o *overheadRec) Name { return o.task })
	var accesses [][]*accessRec
	if opts.ShowAccesses {
		accesses = groupByTask(r, &r.accesses, func(a *accessRec) Name { return a.actor })
	}
	for i, task := range tasks {
		y := topH + i*rowH
		pf(`<text x="4" y="%d">%s</text>`+"\n", y+rowH/2+4, xmlEscape(task))
		pf(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ccc"/>`+"\n", labelW, y+rowH, width, y+rowH)
		if empty {
			continue
		}
		for _, seg := range segs[i] {
			if seg.End <= start || seg.Start >= end || seg.End <= seg.Start {
				continue
			}
			fill, ok := svgStateFill[seg.State]
			if !ok {
				continue // created/terminated: leave blank
			}
			x0, x1 := x(max(seg.Start, start)), x(min(seg.End, end))
			h := rowH - 8
			yy := y + 4
			if seg.State != StateRunning {
				h = rowH - 16
				yy = y + 8
			}
			where := ""
			if multiCore && seg.State == StateRunning {
				where = fmt.Sprintf(" on core %d", seg.Core)
			}
			pf(`<rect x="%.1f" y="%d" width="%.2f" height="%d" fill="%s"><title>%s %s%s [%s..%s]</title></rect>`+"\n",
				x0, yy, x1-x0, h, fill, xmlEscape(task), seg.State, where, seg.Start, seg.End)
		}
		// Overhead overlays attributed to the task.
		for _, o := range overheads[i] {
			if o.end <= start || o.start >= end || o.end <= o.start {
				continue
			}
			x0, x1 := x(max(o.start, start)), x(min(o.end, end))
			pf(`<rect x="%.1f" y="%d" width="%.2f" height="%d" fill="%s"><title>%s %s [%s..%s]</title></rect>`+"\n",
				x0, y+4, x1-x0, rowH-8, svgStateFill[StateOverhead], o.kind, xmlEscape(task), o.start, o.end)
		}
		if opts.ShowAccesses {
			for _, a := range accesses[i] {
				if a.at < start || a.at > end {
					continue
				}
				ax := x(a.at)
				pf(`<path d="M %.1f %d l -4 -7 l 8 0 z" fill="#1565c0"><title>%s %s %s @%s</title></path>`+"\n",
					ax, y+rowH-2, xmlEscape(r.name(a.actor)), a.kind, xmlEscape(r.name(a.object)), a.at)
			}
		}
	}

	// Legend.
	lx := labelW
	ly := topH + rowH*len(tasks) + 26
	legend := []struct {
		s TaskState
		l string
	}{
		{StateRunning, "running"}, {StateReady, "ready"}, {StateWaiting, "waiting"},
		{StateWaitingResource, "resource"}, {StateOverhead, "rtos"},
	}
	for _, item := range legend {
		pf(`<rect x="%d" y="%d" width="10" height="10" fill="%s"/><text x="%d" y="%d">%s</text>`+"\n",
			lx, ly-9, svgStateFill[item.s], lx+14, ly, item.l)
		lx += 14 + 9*len(item.l) + 20
	}
	pf("</svg>\n")
	return errOut
}

// xmlEscape escapes the characters significant in XML text and attributes.
func xmlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			out = append(out, "&amp;"...)
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '"':
			out = append(out, "&quot;"...)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
