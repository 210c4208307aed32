package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/explore"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// exploreMain implements `rtossim explore [flags] scenario.json`: bounded
// schedule-space exploration of one scenario — enumerate same-instant
// tie-break orderings and release-jitter perturbations, check invariants,
// and emit a minimized replayable choice trace for every violation. The
// exploration itself runs in internal/runner; replay stays here because a
// single decoded trace is a CLI-interactive affair.
func exploreMain(args []string) {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	var (
		runs         = fs.Int("runs", 0, "override the interleaving bound (0: the scenario's maxRuns, then 256)")
		depth        = fs.Int("depth", 0, "override the branching depth bound (0: the scenario's maxDepth, then 32)")
		workers      = fs.Int("workers", 0, "worker pool size per frontier wave (0: GOMAXPROCS)")
		replay       = fs.String("replay", "", "replay one encoded choice trace (xt1:...) instead of exploring")
		expectViol   = fs.Bool("expect-violation", false, "exit 0 only when at least one violation is found and its replay verified (for CI smoke checks)")
		checkEngines = fs.Bool("check-engines", false, "compare every interleaving's trace signature across both RTOS engines")
		metricsPath  = fs.String("metrics", "", "write the exploration metrics registry as JSON to this file")
		remote       = fs.String("remote", "", "run through a rtossimd daemon at this address instead of in process")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: rtossim explore [flags] scenario.json\n\n")
		fmt.Fprintf(fs.Output(), "The scenario's explore block declares jitter bounds and invariants, e.g.:\n")
		fmt.Fprintf(fs.Output(), `  "explore": {"jitter": {"beat": "95us"}, "expectedMiss": ["ctrl"], "maxRuns": 128}`+"\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *remote != "" {
		if *replay != "" {
			fatal(fmt.Errorf("-replay is local-only (replaying a trace is a single interactive run, not a queued job)"))
		}
		remoteExplore(*remote, data, runner.ExploreOptions{
			Runs:         *runs,
			Depth:        *depth,
			Workers:      *workers,
			CheckEngines: *checkEngines,
		}, *metricsPath, *expectViol)
		return
	}

	desc, err := scenario.Parse(data)
	if err != nil {
		fatal(err)
	}
	if *replay != "" {
		eng := explore.New(desc)
		if *depth > 0 {
			eng.Cfg.MaxDepth = *depth
		}
		tr, err := explore.Decode(*replay)
		if err != nil {
			fatal(err)
		}
		r, v, err := eng.Replay(tr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replay: %d decision(s), simulated to %v, finished %s\n",
			len(tr.Decisions), r.End, r.Finish)
		if v == nil {
			fmt.Println("replay satisfies every invariant")
			if *expectViol {
				os.Exit(1)
			}
			return
		}
		fmt.Printf("replay reproduces violation [%s]: %s\n", v.Kind, v.Detail)
		if !*expectViol {
			os.Exit(1)
		}
		return
	}

	res, err := runner.Explore(desc, runner.ExploreOptions{
		Runs:         *runs,
		Depth:        *depth,
		Workers:      *workers,
		CheckEngines: *checkEngines,
	}, fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(res.Report)
	if *metricsPath != "" {
		if err := os.WriteFile(*metricsPath, res.MetricsJSON, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *metricsPath)
	}
	if *expectViol {
		for _, v := range res.Summary.Violations {
			if v.Replayed {
				return
			}
		}
		fmt.Fprintln(os.Stderr, "rtossim: expected at least one replay-verified violation, found none")
		os.Exit(1)
	}
	os.Exit(res.ExitCode())
}
