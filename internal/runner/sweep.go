package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/explore"
	"repro/internal/scenario"
)

// SweepOptions parameterizes a parameter-sweep run.
type SweepOptions struct {
	// Workers bounds the worker pool (0: the spec's workers field, then
	// GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// NoTable suppresses the per-variant result table in the report.
	NoTable bool `json:"noTable,omitempty"`
	// Progress, when set, is called after each completed variant.
	Progress func(done, total int) `json:"-"`
	// Context cancels the sweep at variant granularity (see batch.Options).
	Context context.Context `json:"-"`
	// Lookup and Store are the per-variant result cache hooks, passed through
	// to batch.Options verbatim (see the contract there). The rtossimd daemon
	// uses them to serve repeated sweep variants from its LRU without
	// re-simulating.
	Lookup func(v batch.Variant) (batch.Result, bool) `json:"-"`
	Store  func(v batch.Variant, r batch.Result)      `json:"-"`
}

// SweepResult is one finished sweep: the ordered per-variant results, their
// summary, and the report text the CLI prints.
type SweepResult struct {
	Results []batch.Result
	Summary batch.Summary
	// Report is the table (unless suppressed) followed by the summary,
	// byte-identical to the CLI's stdout.
	Report []byte
	// Canceled reports that the sweep's context was canceled before every
	// variant ran.
	Canceled bool
	// ElapsedMS is the wall-clock cost of the whole sweep in milliseconds.
	ElapsedMS int64
}

// ExitCode mirrors the CLI: 1 when any variant failed, 0 otherwise.
func (r *SweepResult) ExitCode() int {
	if r.Summary.Failures > 0 {
		return 1
	}
	return 0
}

// ResultsJSON renders the per-variant results as indented JSON, exactly as
// the CLI's -json flag writes them.
func (r *SweepResult) ResultsJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Results); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Sweep expands and runs a sweep spec against the base scenario bytes. The
// spec's Scenario path field is ignored here — resolving it against the
// filesystem is the CLI's business; the daemon embeds the base scenario in
// the job payload instead.
func Sweep(spec *batch.Spec, base []byte, opts SweepOptions) (*SweepResult, error) {
	desc, err := scenario.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("base scenario: %w", err)
	}
	return SweepParsed(spec, desc, opts)
}

// SweepParsed is Sweep for an already parsed base: every variant derives
// its description from base, which is never written.
func SweepParsed(spec *batch.Spec, base *scenario.System, opts SweepOptions) (*SweepResult, error) {
	start := time.Now()
	variants, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	bo := batch.Options{Workers: opts.Workers, Progress: opts.Progress, Context: opts.Context,
		Lookup: opts.Lookup, Store: opts.Store}
	if bo.Workers == 0 {
		bo.Workers = spec.Workers
	}
	results := spec.Run(base, variants, bo)
	res := &SweepResult{Results: results, Summary: batch.Summarize(results)}
	for _, r := range results {
		if r.Err == batch.ErrCanceled {
			res.Canceled = true
			break
		}
	}
	var report bytes.Buffer
	if !opts.NoTable {
		report.WriteString(batch.Table(results))
		report.WriteString("\n")
	}
	report.WriteString(res.Summary.Report())
	res.Report = report.Bytes()
	res.ElapsedMS = time.Since(start).Milliseconds()
	return res, nil
}

// ExploreOptions parameterizes a schedule-space exploration run.
type ExploreOptions struct {
	// Runs and Depth override the scenario's bounds when positive.
	Runs  int `json:"runs,omitempty"`
	Depth int `json:"depth,omitempty"`
	// Workers bounds the per-wave worker pool (0: GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// CheckEngines compares every interleaving across both RTOS engines.
	CheckEngines bool `json:"checkEngines,omitempty"`
}

// ExploreResult is one finished exploration.
type ExploreResult struct {
	Summary explore.Summary
	// Report is "scenario <name>" plus the exploration summary,
	// byte-identical to the CLI's stdout.
	Report []byte
	// MetricsJSON is the exploration metrics registry (always produced; it
	// is small).
	MetricsJSON []byte
	// ElapsedMS is the wall-clock cost of the exploration in milliseconds.
	ElapsedMS int64
}

// ExitCode mirrors the CLI: 1 when any violation was found.
func (r *ExploreResult) ExitCode() int {
	if len(r.Summary.Violations) > 0 {
		return 1
	}
	return 0
}

// Explore runs bounded schedule-space exploration of one parsed scenario.
// fallbackName labels the report when the scenario has no name.
func Explore(desc *scenario.System, opts ExploreOptions, fallbackName string) (*ExploreResult, error) {
	start := time.Now()
	eng := explore.New(desc)
	if opts.Runs > 0 {
		eng.Cfg.MaxRuns = opts.Runs
	}
	if opts.Depth > 0 {
		eng.Cfg.MaxDepth = opts.Depth
	}
	eng.Cfg.Workers = opts.Workers
	if opts.CheckEngines {
		eng.Cfg.CheckEngines = true
	}
	sum, err := eng.Run()
	if err != nil {
		return nil, err
	}
	name := desc.Name
	if name == "" {
		name = fallbackName
	}
	var report bytes.Buffer
	fmt.Fprintf(&report, "scenario %s\n", name)
	report.WriteString(sum.Report())
	var mbuf bytes.Buffer
	if err := eng.Metrics.WriteJSON(&mbuf); err != nil {
		return nil, err
	}
	return &ExploreResult{Summary: *sum, Report: report.Bytes(), MetricsJSON: mbuf.Bytes(),
		ElapsedMS: time.Since(start).Milliseconds()}, nil
}
