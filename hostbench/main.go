// Command hostbench is the simulator's host-time benchmark. It drives four
// workloads through the public entry points of the run pipeline, checks
// every output against a reference, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of standard output:
//
//	go run . -workload long-soc -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and what each one explains.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, printed by every
// untraced run. Each workload gives every one of them a value; README.md
// says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"sim_ms_per_s", "ms/s"},
	{"variants_per_s", "1/s"},
	{"hit_ms_p50", "ms"},
	{"miss_ms_p50", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics of the traced run. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"scenario.parse_ms", "ms"},
	{"scenario.hash_ms", "ms"},
	{"scenario.build_ms", "ms"},
	{"scenario.partition_ms", "ms"},
	{"psim.run_ms", "ms"},
	{"trace.merge_ms", "ms"},
	{"psim.speedup", "ratio"},
	{"sim.run_ms", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.activations", "count"},
	{"sim.delta_cycles", "count"},
	{"rtos.context_switches", "count"},
	{"rtos.preemptions", "count"},
	{"trace.stats_ms", "ms"},
	{"trace.perfetto_ms", "ms"},
	{"trace.perfetto_mb", "MB"},
	{"metrics.json_ms", "ms"},
	{"runner.self_ms", "ms"},
	{"batch.variant_ms_p50", "ms"},
	{"batch.busy_ratio", "ratio"},
	{"server.submit_ms_p50", "ms"},
	{"server.queue_wait_ms_p90", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.fetch_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected", "ratio"},
	{"gen.late_ms_p90", "ms"},
	{"journal.replay_ms", "ms"},
	{"bench.op_ms_p50_untraced", "ms"},
	{"bench.op_ms_p50_traced", "ms"},
	{"bench.span_overhead_pct", "%"},
}

// config is what every workload receives.
type config struct {
	seed   uint64
	window time.Duration
	tr     *tracer // nil for untraced runs
	nproc  int
}

// fingerprint is the simulated-statistics digest of a workload: exact
// counts that a change to host speed alone must leave untouched.
type fingerprint struct {
	SimEndPs        int64  `json:"simEndPs"`
	Activations     uint64 `json:"activations"`
	DeltaCycles     uint64 `json:"deltaCycles"`
	ContextSwitches uint64 `json:"contextSwitches"`
	DeadlineMisses  uint64 `json:"deadlineMisses"`
}

func (f *fingerprint) add(o fingerprint) {
	f.SimEndPs += o.SimEndPs
	f.Activations += o.Activations
	f.DeltaCycles += o.DeltaCycles
	f.ContextSwitches += o.ContextSwitches
	f.DeadlineMisses += o.DeadlineMisses
}

// outcome is what a workload run returns.
type outcome struct {
	attempted, failed int
	problems          []string // first few failed checks, for stderr
	values            map[string]float64
	fp                fingerprint
	// fpScope distinguishes fingerprints that depend on more than the seed
	// (the daemon's op count depends on the window).
	fpScope string
	notes   []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"long-soc": runLongSoC,
	"sharded":  runSharded,
	"sweep":    runSweep,
	"daemon":   runDaemon,
}

// outDir holds everything the benchmark writes: span traces and the
// fingerprints of earlier runs. It is relative to the working directory,
// the root of the checkout.
const outDir = ".bench_build"

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: long-soc, sharded, sweep or daemon")
	seed := flag.Uint64("seed", 1, "seed every workload input is generated from")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "hostbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traced)
		return 2
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, nproc: runtime.NumCPU()}
	runtime.GOMAXPROCS(cfg.nproc)
	if *traced == 1 {
		cfg.tr = newTracer()
	}

	host := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"nproc": cfg.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))

	steal0, total0 := cpuTicks()
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", *workload, err)
		return 1
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		out.notes = append(out.notes, fmt.Sprintf("host: hypervisor steal %.1f%% of CPU time during the run",
			100*float64(steal1-steal0)/float64(total1-total0)))
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		return 1
	}
	out.values["peak_rss_mb"] = rss

	fpLine, _ := json.Marshal(map[string]any{"fingerprint": out.fp,
		"model_check": "simulated behaviour is checked against the paper's figure 6/7 goldens only, not against hardware"})
	fmt.Println(string(fpLine))
	if err := checkFingerprint(*workload, *seed, out); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "hostbench: check failed:", p)
	}

	defs := endToEnd
	if cfg.tr != nil {
		defs = perLayer
		if err := os.MkdirAll(filepath.Join(outDir, "spans"), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
			return 1
		}
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := cfg.tr.writeChrome(path, host); err != nil {
			fmt.Fprintf(os.Stderr, "hostbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(cfg.tr.spans), path)
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": out.values[d.name], "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0 && out.attempted > 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// checkFingerprint compares the run's fingerprint with the one an earlier
// run of the same binary, workload and seed stored, and stores it when it is
// the first. A difference fails the run: the same code must simulate the
// same model identically.
func checkFingerprint(workload string, seed uint64, out *outcome) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(outDir, "fingerprints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-seed%d%s.json", hex.EncodeToString(sum[:8]), workload, seed, out.fpScope)
	path := filepath.Join(dir, name)
	got, _ := json.Marshal(out.fp)
	prev, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return os.WriteFile(path, got, 0o644)
	case err != nil:
		return err
	case string(prev) != string(got):
		out.fail("fingerprint %s differs from an earlier run of the same binary: %s", got, prev)
	}
	return nil
}
