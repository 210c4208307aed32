package batch

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// Metrics are the aggregate outcomes of one sweep run, extracted from the
// simulation so the full trace can be discarded. They are pure functions of
// the variant (simulations are deterministic), which is what makes parallel
// and serial sweeps comparable result-for-result.
type Metrics struct {
	// End is the simulated time the run finished at; Finish tells why.
	End    sim.Time
	Finish string
	// Activations and DeltaCycles are the kernel's effort counters — the
	// paper's efficiency metric for comparing the two RTOS implementations.
	Activations uint64
	DeltaCycles uint64
	// Dispatches, Preemptions and Migrations are summed over all processors
	// (migrations stay zero on single-core and partitioned runs).
	Dispatches  uint64
	Preemptions uint64
	Migrations  uint64
	// ContextSwitches is summed over all processors (from the trace).
	ContextSwitches int
	// OverheadPs is the RTOS overhead time (scheduling + context save/load)
	// summed over all processors, in picoseconds, from the metrics registry.
	OverheadPs sim.Time
	// Violations counts timing-constraint violations; DeadlineMisses the
	// subset from periodic-task deadline watchdogs.
	Violations     int
	DeadlineMisses int
	// Jobs and AbortedJobs count periodic-task cycles.
	Jobs        int
	AbortedJobs int
	// Utilization is the mean processor load ratio over the run.
	Utilization float64
}

// Result is the outcome of one variant's simulation. Err carries the failure
// text (deadlock, model panic) — a string, not an error, so results compare
// with == and survive JSON round-trips.
type Result struct {
	Variant Variant
	Metrics Metrics
	Err     string
}

// Options configures a sweep execution.
type Options struct {
	// Workers bounds the number of concurrent simulations (<= 0: GOMAXPROCS).
	Workers int
	// Progress, when set, is called after each completed run with the number
	// done so far and the total. Calls are serialized but not ordered by
	// variant index.
	Progress func(done, total int)
	// Context, when set, cancels the sweep: no new variant is dispatched
	// after it is done, and variants that never ran report ErrCanceled as
	// their result. In-flight variants finish (a simulation is internally
	// single-threaded and cannot be interrupted mid-run), so cancellation
	// latency is one variant's run time, not the remaining sweep.
	Context context.Context
	// Lookup, when set, is consulted before each variant is simulated; a hit
	// is used as the variant's result verbatim and the simulation is skipped.
	// Simulations are deterministic, so a cache keyed on (scenario, spec
	// horizon, variant) is sound. Called concurrently from worker goroutines.
	Lookup func(v Variant) (Result, bool)
	// Store, when set, receives each successfully simulated result that did
	// not come from Lookup. Results with a non-empty Err (failed or canceled
	// variants) are never offered. Called concurrently from worker goroutines.
	Store func(v Variant, r Result)
}

// ErrCanceled is the Result.Err text of a variant that was never simulated
// because the sweep's context was canceled first.
const ErrCanceled = "canceled"

// ForEach runs fn(i) for every index in [0, n) on a bounded worker pool and
// blocks until all calls return. Workers <= 0 means GOMAXPROCS. It is the
// worker-pool core of Run, exported so other frontier consumers (the
// schedule explorer fans its enumeration waves through it, the rtossimd
// server runs its shard loops on it) share one execution discipline: each fn
// call owns its index's work exclusively, and a Workers=1 pool is fully
// serial.
func ForEach(n, workers int, fn func(i int)) {
	ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done no further index
// is dispatched, and the call returns as soon as the already-dispatched fn
// calls finish. Indices that were never dispatched are simply skipped — the
// caller distinguishes them by whatever per-index state fn leaves behind.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		select {
		case jobs <- i:
		case <-done:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
}

// Run simulates every variant of the sweep against the base scenario bytes
// and returns the results ordered by variant index. Each run re-parses the
// base bytes into a private scenario (deep copy) and owns a private kernel,
// so runs share nothing; with Workers=1 the sweep is fully serial and yields
// the same results as any parallel execution.
func (s *Spec) Run(base []byte, variants []Variant, opts Options) []Result {
	results := make([]Result, len(variants))
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ran := make([]bool, len(variants))
	var progressMu sync.Mutex
	done := 0
	ForEachCtx(ctx, len(variants), opts.Workers, func(i int) {
		ran[i] = true
		switch {
		case ctx.Err() != nil:
			// Dispatched but not yet started when the sweep was canceled.
			results[i] = Result{Variant: variants[i], Err: ErrCanceled}
		default:
			if opts.Lookup != nil {
				if r, ok := opts.Lookup(variants[i]); ok {
					r.Variant = variants[i] // the cache may have normalized it
					results[i] = r
					break
				}
			}
			results[i] = s.runOne(base, variants[i])
			if opts.Store != nil && results[i].Err == "" {
				opts.Store(variants[i], results[i])
			}
		}
		if opts.Progress != nil {
			progressMu.Lock()
			done++
			opts.Progress(done, len(variants))
			progressMu.Unlock()
		}
	})
	for i := range results {
		if !ran[i] {
			results[i] = Result{Variant: variants[i], Err: ErrCanceled}
		}
	}
	return results
}

// Sweep is the one-call form: expand the spec's axes and run them all.
func (s *Spec) Sweep(base []byte, opts Options) ([]Result, error) {
	variants, err := s.Expand()
	if err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = s.Workers
	}
	return s.Run(base, variants, opts), nil
}

// runOne simulates a single variant in isolation.
func (s *Spec) runOne(base []byte, v Variant) Result {
	res := Result{Variant: v}
	desc, err := scenario.Parse(base)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	s.apply(desc, v)
	built, err := desc.Build()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	rep, runErr := built.RunChecked()
	if runErr != nil {
		res.Err = runErr.Error()
	}
	res.Metrics = computeMetrics(built, rep)
	return res
}

// computeMetrics extracts the aggregate outcomes from a finished run.
func computeMetrics(built *scenario.Built, rep sim.Report) Metrics {
	sys := built.Sys
	m := Metrics{
		End:         sys.Now(),
		Finish:      rep.Reason.String(),
		Activations: rep.Activations,
		DeltaCycles: rep.DeltaCycles,
	}
	for _, cpu := range sys.Processors() {
		m.Dispatches += cpu.Dispatches()
		m.Preemptions += cpu.Preemptions()
		m.Migrations += cpu.Migrations()
		m.OverheadPs += cpu.OverheadTime()
	}
	for _, v := range sys.Constraints.Violations() {
		m.Violations++
		if strings.HasSuffix(v.Name, ".deadline") {
			m.DeadlineMisses++
		}
	}
	for _, t := range built.Tasks {
		m.Jobs += int(t.CompletedCycles() + t.AbortedCycles())
		m.AbortedJobs += int(t.AbortedCycles())
	}
	st := sys.Stats(0)
	for i := range st.Processors {
		m.ContextSwitches += st.Processors[i].ContextSwitches
		m.Utilization += st.Processors[i].LoadRatio()
	}
	if n := len(st.Processors); n > 0 {
		m.Utilization /= float64(n)
	}
	return m
}

// Summary aggregates a sweep's results.
type Summary struct {
	Runs            int
	Failures        int
	TotalMisses     int
	TotalViolations int
	MinEnd, MaxEnd  sim.Time
	MeanUtilization float64
}

// Summarize rolls the per-variant results up into a Summary.
func Summarize(results []Result) Summary {
	var s Summary
	s.Runs = len(results)
	for _, r := range results {
		if r.Err != "" {
			s.Failures++
			continue
		}
		s.TotalMisses += r.Metrics.DeadlineMisses
		s.TotalViolations += r.Metrics.Violations
		s.MeanUtilization += r.Metrics.Utilization
		if s.MinEnd == 0 || r.Metrics.End < s.MinEnd {
			s.MinEnd = r.Metrics.End
		}
		if r.Metrics.End > s.MaxEnd {
			s.MaxEnd = r.Metrics.End
		}
	}
	if ok := s.Runs - s.Failures; ok > 0 {
		s.MeanUtilization /= float64(ok)
	}
	return s
}

// Table renders one row per result, ordered by variant index, for terminal
// reports. The output is deterministic.
func Table(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-40s %10s %8s %8s %8s %7s %7s %6s %6s %10s\n",
		"#", "variant", "end", "activ", "disp", "preempt", "migr", "miss", "viol", "util", "overhead")
	for _, r := range results {
		if r.Err != "" {
			line := r.Err
			if i := strings.IndexByte(line, '\n'); i >= 0 {
				line = line[:i]
			}
			fmt.Fprintf(&b, "%-4d %-40s FAILED: %s\n", r.Variant.Index, r.Variant.Label(), line)
			continue
		}
		m := r.Metrics
		fmt.Fprintf(&b, "%-4d %-40s %10v %8d %8d %8d %7d %7d %6d %5.1f%% %10v\n",
			r.Variant.Index, r.Variant.Label(), m.End, m.Activations,
			m.Dispatches, m.Preemptions, m.Migrations, m.DeadlineMisses, m.Violations,
			m.Utilization*100, m.OverheadPs)
	}
	return b.String()
}

// Report renders the summary for terminal output.
func (s Summary) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d run(s), %d failure(s)\n", s.Runs, s.Failures)
	if s.Runs > s.Failures {
		fmt.Fprintf(&b, "  deadline misses: %d   constraint violations: %d\n",
			s.TotalMisses, s.TotalViolations)
		fmt.Fprintf(&b, "  simulated end: %v .. %v   mean utilization: %.1f%%\n",
			s.MinEnd, s.MaxEnd, s.MeanUtilization*100)
	}
	return b.String()
}
