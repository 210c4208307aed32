// Command rtossim simulates a real-time system described in a JSON scenario
// file using the generic RTOS model and reports timelines, statistics,
// timing-constraint verdicts, and CSV/VCD trace exports.
//
// It is a thin client of internal/runner — the same pipeline the rtossimd
// daemon serves over HTTP — so the report printed here is byte-identical to
// the one a daemon job for the same scenario and options returns.
//
// Usage:
//
//	rtossim [flags] scenario.json
//	rtossim sweep [flags] sweep.json
//	rtossim explore [flags] scenario.json
//
// Examples:
//
//	rtossim -timeline -stats examples/scenarios/figure6.json
//	rtossim sweep -workers 8 examples/scenarios/sweep.json
//	rtossim explore -runs 64 examples/scenarios/faults.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/runner"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		sweepMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "explore" {
		exploreMain(os.Args[2:])
		return
	}
	var (
		until       = flag.String("until", "", "override the scenario horizon (e.g. 2ms)")
		engine      = flag.String("engine", "", "override every processor's engine: procedural or threaded")
		taskEngine  = flag.String("taskengine", "", "override the task engine running every software task's compiled body: goroutine or continuation")
		shards      = flag.Int("shards", 0, "run the sharded parallel engine on up to N kernels (0 = sequential unless the scenario carries shard labels; a plan of one group runs sequentially)")
		timeline    = flag.Bool("timeline", false, "print the ASCII TimeLine chart")
		width       = flag.Int("width", 100, "timeline width in columns")
		accesses    = flag.Bool("accesses", false, "show communication accesses on the timeline")
		stats       = flag.Bool("stats", true, "print the statistics report")
		chronology  = flag.Bool("chronology", false, "print the chronological event listing")
		constraints = flag.Bool("constraints", true, "print the timing-constraint report")
		csvPath     = flag.String("csv", "", "write the trace as CSV to this file")
		vcdPath     = flag.String("vcd", "", "write the trace as VCD to this file")
		jsonPath    = flag.String("json", "", "write the trace as JSON to this file")
		svgPath     = flag.String("svg", "", "write the TimeLine chart as SVG to this file")
		analyze     = flag.Bool("analyze", false, "print schedulability analysis for periodic tasks before simulating")
		faults      = flag.Bool("faults", true, "print the fault-tolerance report when faults were recorded")
		metricsPath = flag.String("metrics", "", "write the metrics registry as JSON to this file")
		promPath    = flag.String("prom", "", "write the metrics registry as Prometheus text to this file")
		perfetto    = flag.String("perfetto", "", "write the trace as Perfetto/Chrome trace_event JSON to this file")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprofile  = flag.String("memprofile", "", "write a memory profile to this file after the simulation")
		remote      = flag.String("remote", "", "run through a rtossimd daemon at this address instead of in process")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rtossim [flags] scenario.json\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	opts := runner.Options{
		Until:         *until,
		Engine:        *engine,
		TaskEngine:    *taskEngine,
		Shards:        *shards,
		Analyze:       *analyze,
		Timeline:      *timeline,
		Width:         *width,
		Accesses:      *accesses,
		Chronology:    *chronology,
		NoStats:       !*stats,
		NoConstraints: !*constraints,
		NoFaults:      !*faults,
	}
	// File flags map one-to-one onto runner artifacts.
	files := map[string]string{
		"csv": *csvPath, "vcd": *vcdPath, "json": *jsonPath, "svg": *svgPath,
		"metrics": *metricsPath, "prom": *promPath, "perfetto": *perfetto,
	}
	for _, name := range runner.KnownArtifacts {
		if files[name] != "" {
			opts.Artifacts = append(opts.Artifacts, name)
		}
	}

	if *remote != "" {
		remoteSimulate(*remote, data, opts, files)
		return
	}

	stopCPUProfile := startCPUProfile(*cpuprofile)
	res, err := runner.Run(data, opts, flag.Arg(0))
	stopCPUProfile()
	writeMemProfile(*memprofile)
	if err != nil {
		fatal(err)
	}

	os.Stdout.Write(res.Report)
	if res.SimError != "" {
		fmt.Fprintln(os.Stderr)
		fmt.Fprintln(os.Stderr, "rtossim: simulation failed:")
		for _, line := range strings.Split(res.SimError, "\n") {
			fmt.Fprintln(os.Stderr, "  "+line)
		}
	}
	for _, name := range opts.Artifacts {
		path := files[name]
		if err := os.WriteFile(path, res.Artifacts[name], 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	os.Exit(res.ExitCode())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtossim:", err)
	os.Exit(2)
}
