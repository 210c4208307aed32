// Package runner is the reusable run pipeline of the simulator: load →
// validate → elaborate → run → analyze → export, factored out of the
// one-shot CLI so every consumer — cmd/rtossim, the rtossimd daemon, tests —
// produces reports, metrics, Perfetto traces and sweep/explore results
// through one code path. The CLI is a thin client that parses flags into an
// Options value and prints the Result; the daemon queues Requests, caches
// Results by the scenario's canonical content hash, and serves the same
// bytes over HTTP. Byte-identity between those consumers is a feature, not
// an accident: the report text and every artifact are composed here, once.
package runner

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/psim"
	"repro/internal/rtos"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options parameterizes one simulation run. The zero value reproduces the
// CLI's defaults (statistics, constraint and fault reports on; nothing
// else), so a JSON job payload that omits the options gets the same report a
// bare `rtossim scenario.json` prints. Suppression flags are spelled
// negatively (NoStats) for exactly that reason.
type Options struct {
	// Until overrides the scenario horizon (e.g. "2ms").
	Until string `json:"until,omitempty"`
	// Engine overrides every processor's engine: "procedural" or "threaded".
	Engine string `json:"engine,omitempty"`
	// TaskEngine overrides the task engine that runs every software task's
	// compiled body: "goroutine" or "continuation" (the default for tasks
	// that leave it unset). The simulated outcome is the same either way.
	TaskEngine string `json:"taskEngine,omitempty"`
	// Shards selects the sharded multi-kernel parallel engine: 0 (the
	// default) runs sequentially unless the scenario carries shard labels,
	// and N > 0 partitions the processors onto at most N shards synchronized
	// by channel lookahead. A partition that yields one group (N == 1, or
	// shard labels that all name one shard) runs on the sequential engine.
	Shards int `json:"shards,omitempty"`
	// Analyze prepends the schedulability analysis for periodic tasks.
	Analyze bool `json:"analyze,omitempty"`
	// Timeline includes the ASCII TimeLine chart; Width is its column count
	// (default 100, at most MaxTimelineWidth) and Accesses shows
	// communication accesses on it.
	Timeline bool `json:"timeline,omitempty"`
	Width    int  `json:"width,omitempty"`
	Accesses bool `json:"accesses,omitempty"`
	// Chronology includes the chronological event listing.
	Chronology bool `json:"chronology,omitempty"`
	// NoStats, NoConstraints and NoFaults suppress the corresponding report
	// sections (all included by default; the fault report only appears when
	// fault events were recorded).
	NoStats       bool `json:"noStats,omitempty"`
	NoConstraints bool `json:"noConstraints,omitempty"`
	NoFaults      bool `json:"noFaults,omitempty"`
	// Artifacts lists the exports to produce alongside the report: "csv",
	// "vcd", "json", "svg", "perfetto", "metrics" (registry JSON), "prom"
	// (registry Prometheus text).
	Artifacts []string `json:"artifacts,omitempty"`
}

// MaxTimelineWidth bounds Options.Width. The timeline renderer allocates
// width bytes per task row, and the width arrives unchecked from daemon job
// bodies, so Prepare refuses anything wider.
const MaxTimelineWidth = 4096

// KnownArtifacts are the artifact names Options.Artifacts accepts.
var KnownArtifacts = []string{"csv", "vcd", "json", "svg", "perfetto", "metrics", "prom"}

// Result is one finished run: identity, outcome, the human report (exactly
// the bytes the CLI prints to stdout), and the requested artifacts.
type Result struct {
	// Name is the scenario's name (or the caller-supplied fallback).
	Name string `json:"name"`
	// End is the simulated end time; Finish tells why the run stopped.
	End    sim.Time `json:"end"`
	Finish string   `json:"finish"`
	// Activations and DeltaCycles are the kernel's effort counters.
	Activations uint64 `json:"activations"`
	DeltaCycles uint64 `json:"deltaCycles"`
	// SimError carries the failure text of a diagnosed bad run (deadlock,
	// model panic, starvation); empty on success. The CLI prints it to
	// stderr, so it is not part of Report.
	SimError string `json:"simError,omitempty"`
	// ConstraintsOK reports whether every timing constraint held.
	ConstraintsOK bool `json:"constraintsOK"`
	// ElapsedMS is the wall-clock cost of the run pipeline in milliseconds.
	// It feeds the daemon's per-shard service-time estimate (and thus the
	// Retry-After advice under backpressure); a cached result reports the
	// original run's cost, not the (near-zero) cache lookup.
	ElapsedMS int64 `json:"elapsedMs"`
	// Report is the full report text, byte-identical to the CLI's stdout
	// for the same options (minus its "wrote file" notices).
	Report []byte `json:"-"`
	// Artifacts maps requested artifact names to their rendered bytes.
	Artifacts map[string][]byte `json:"-"`
}

// ExitCode is the process exit status the CLI maps the outcome to: 1 when
// the simulation failed or a constraint was violated, 0 otherwise.
func (r *Result) ExitCode() int {
	if r.SimError != "" || !r.ConstraintsOK {
		return 1
	}
	return 0
}

// Prepare parses the scenario bytes and derives the description the options
// select. Split from Run so callers that need the description early (content
// hashing, job validation) share the exact override semantics.
func Prepare(data []byte, opts Options) (*scenario.System, error) {
	desc, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	return opts.Derive(desc)
}

// Derive checks the options and applies their overrides to a parsed
// description through scenario.System.With; desc itself is not modified.
func (o Options) Derive(desc *scenario.System) (*scenario.System, error) {
	ov := scenario.Override{Engine: o.Engine, TaskEngine: o.TaskEngine}
	if o.Until != "" {
		until, err := scenario.ParseDuration(o.Until)
		if err != nil {
			return nil, err
		}
		ov.Horizon = &until
	}
	derived, err := desc.With(ov)
	if err != nil {
		return nil, err
	}
	if o.Width < 0 || o.Width > MaxTimelineWidth {
		return nil, fmt.Errorf("timeline width %d out of range (want 0 to %d columns; 0 means 100)", o.Width, MaxTimelineWidth)
	}
	for _, a := range o.Artifacts {
		if !slices.Contains(KnownArtifacts, a) {
			return nil, fmt.Errorf("unknown artifact %q (want one of %s)", a, strings.Join(KnownArtifacts, ", "))
		}
	}
	return derived, nil
}

// Run executes the full pipeline on one scenario. A non-nil error is a
// load/validate/build-class failure (the CLI's exit-2 class); simulation
// failures and constraint violations come back inside the Result.
// fallbackName labels the report when the scenario has no name (the CLI
// passes the file path).
func Run(data []byte, opts Options, fallbackName string) (*Result, error) {
	desc, err := Prepare(data, opts)
	if err != nil {
		return nil, err
	}
	return RunPrepared(desc, opts, fallbackName)
}

// RunPrepared is Run for an already-Prepared description.
func RunPrepared(desc *scenario.System, opts Options, fallbackName string) (*Result, error) {
	start := time.Now()
	var report bytes.Buffer
	if opts.Analyze {
		report.WriteString(desc.AnalysisReport())
		report.WriteString("\n")
	}
	v, err := execute(desc, opts)
	if err != nil {
		return nil, err
	}

	name := desc.Name
	if name == "" {
		name = fallbackName
	}
	res := &Result{
		Name:          name,
		End:           v.end,
		Finish:        v.finish.String(),
		Activations:   v.activations,
		DeltaCycles:   v.deltaCycles,
		ConstraintsOK: v.constraints.OK(),
	}
	if v.runErr != nil {
		res.SimError = v.runErr.Error()
	}
	fmt.Fprintf(&report, "scenario %s simulated to %v, finished %v (%d kernel activations, %d delta cycles)\n",
		name, v.end, v.finish, v.activations, v.deltaCycles)

	if len(v.blocked) > 0 {
		fmt.Fprintf(&report, "warning: %d task(s) still blocked at the end:", len(v.blocked))
		for _, t := range v.blocked {
			fmt.Fprintf(&report, " %s(%v)", t.Name(), t.State())
		}
		fmt.Fprintln(&report)
	}
	if opts.Timeline {
		width := opts.Width
		if width == 0 {
			width = 100
		}
		report.WriteString("\n")
		report.WriteString(v.rec.RenderTimeline(trace.TimelineOptions{
			Width:        width,
			ShowAccesses: opts.Accesses,
			Legend:       true,
		}))
	}
	if opts.Chronology {
		report.WriteString("\n")
		report.WriteString(v.rec.RenderChronology())
	}
	if !opts.NoStats {
		report.WriteString("\n")
		report.WriteString(v.rec.ComputeStats(0).String())
		if v.multiCore {
			report.WriteString("\n")
			report.WriteString(analysis.CoreLoadReport(analysis.CoreLoads(v.rec, 0)))
		}
	}
	if !opts.NoConstraints {
		report.WriteString("\n")
		report.WriteString(v.constraints.Report())
	}
	if evs := v.rec.FaultEvents(); !opts.NoFaults && len(evs) > 0 {
		m := analysis.ComputeFaultMetrics(evs, v.end)
		m.Jobs += v.jobs
		m.AbortedJobs += v.abortedJobs
		for _, vi := range v.constraints.Violations() {
			if vi.Task != "" {
				m.Misses++
			}
		}
		report.WriteString("\n")
		report.WriteString(m.Report())
	}
	res.Report = report.Bytes()

	if len(opts.Artifacts) > 0 {
		res.Artifacts = make(map[string][]byte, len(opts.Artifacts))
		for _, a := range opts.Artifacts {
			var buf bytes.Buffer
			var err error
			switch a {
			case "csv":
				err = v.rec.WriteCSV(&buf)
			case "vcd":
				err = v.rec.WriteVCD(&buf)
			case "json":
				err = v.rec.WriteJSON(&buf)
			case "svg":
				err = v.rec.WriteSVG(&buf, trace.SVGOptions{ShowAccesses: opts.Accesses})
			case "perfetto":
				err = v.rec.WritePerfetto(&buf, trace.PerfettoOptions{Misses: v.constraints.PerfettoMisses()})
			case "metrics":
				err = v.reg.WriteJSON(&buf)
			case "prom":
				err = v.reg.WritePrometheus(&buf)
			}
			if err != nil {
				return nil, fmt.Errorf("rendering %s artifact: %w", a, err)
			}
			res.Artifacts[a] = buf.Bytes()
		}
	}
	res.ElapsedMS = time.Since(start).Milliseconds()
	return res, nil
}

// runView is the engine-independent material the report and every artifact
// are composed from. The sequential engine fills it straight from the one
// system; the parallel engine fills it from per-shard systems, merged. One
// report path serves both.
type runView struct {
	end         sim.Time
	finish      sim.FinishReason
	activations uint64
	deltaCycles uint64
	runErr      error
	blocked     []*rtos.Task
	rec         *trace.Recorder
	constraints *rtos.ConstraintSet
	reg         *metrics.Registry
	multiCore   bool
	// jobs/abortedJobs pre-aggregate the per-task cycle counters the fault
	// report needs.
	jobs        int
	abortedJobs int
}

// execute runs the scenario on the engine the options select: the in-process
// sequential kernel by default, the sharded parallel engine when -shards is
// given or the scenario carries shard labels. A plan that comes out as one
// group runs sequentially too — it is the whole model on one kernel — after
// Partition has had its say, so its errors still surface.
func execute(desc *scenario.System, opts Options) (*runView, error) {
	if opts.Shards == 0 && !desc.HasShardLabels() {
		return executeSequential(desc)
	}
	plan, err := desc.Partition(opts.Shards)
	if err != nil {
		return nil, err
	}
	if len(plan.Groups) == 1 {
		return executeSequential(desc)
	}
	return executeParallel(desc, plan)
}

func executeSequential(desc *scenario.System) (*runView, error) {
	built, err := desc.Build()
	if err != nil {
		return nil, err
	}
	_, runErr := built.RunChecked()
	sys := built.Sys
	v := &runView{
		end:         sys.Now(),
		finish:      sys.FinishReason(),
		activations: sys.K.Activations(),
		deltaCycles: sys.K.DeltaCount(),
		runErr:      runErr,
		blocked:     sys.BlockedTasks(),
		rec:         sys.Rec,
		constraints: sys.Constraints,
		reg:         sys.Metrics,
		multiCore:   multiCore(sys),
	}
	countJobs(v, built)
	return v, nil
}

func executeParallel(desc *scenario.System, plan *scenario.ShardPlan) (*runView, error) {
	pres, err := psim.Run(desc, plan)
	if err != nil {
		return nil, err
	}
	v := &runView{
		end:         pres.End,
		finish:      pres.Finish,
		activations: pres.Activations,
		deltaCycles: pres.DeltaCycles,
		runErr:      pres.Err,
	}
	recs := make([]*trace.Recorder, len(pres.Builts))
	sets := make([]*rtos.ConstraintSet, len(pres.Builts))
	v.reg = metrics.NewRegistry()
	for i, built := range pres.Builts {
		sys := built.Sys
		recs[i] = sys.Rec
		sets[i] = sys.Constraints
		v.reg.Merge(sys.Metrics)
		v.blocked = append(v.blocked, sys.BlockedTasks()...)
		v.multiCore = v.multiCore || multiCore(sys)
		countJobs(v, built)
	}
	v.rec = trace.MergeRecorders(recs, pres.End)
	nameOrder := make([]string, len(desc.Constraints))
	for i, c := range desc.Constraints {
		nameOrder[i] = c.Name
	}
	v.constraints = rtos.MergeConstraintSets(sets, nameOrder)
	return v, nil
}

func multiCore(sys *rtos.System) bool {
	for _, cpu := range sys.Processors() {
		if cpu.Cores() > 1 {
			return true
		}
	}
	return false
}

func countJobs(v *runView, built *scenario.Built) {
	for _, t := range built.Tasks {
		v.jobs += int(t.CompletedCycles() + t.AbortedCycles())
		v.abortedJobs += int(t.AbortedCycles())
	}
}

// WriteArtifact streams one rendered artifact; it exists so callers that
// write straight to files or sockets need not special-case names.
func (r *Result) WriteArtifact(w io.Writer, name string) error {
	data, ok := r.Artifacts[name]
	if !ok {
		return fmt.Errorf("runner: artifact %q was not produced (have %s)",
			name, strings.Join(r.ArtifactNames(), ", "))
	}
	_, err := w.Write(data)
	return err
}

// ArtifactNames lists the produced artifacts, sorted.
func (r *Result) ArtifactNames() []string {
	names := make([]string, 0, len(r.Artifacts))
	for n := range r.Artifacts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
