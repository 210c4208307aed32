package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/batch"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// sweepMain implements `rtossim sweep [flags] sweep.json`: a parallel
// parameter sweep of one base scenario over the cross-product of the spec's
// axes (engines, policies, speeds, overhead sets, fault seeds). The sweep
// itself runs in internal/runner; this wrapper only resolves files and flags.
func sweepMain(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		workers  = fs.Int("workers", 0, "worker pool size (0: the spec's workers field, then GOMAXPROCS)")
		table    = fs.Bool("table", true, "print the per-variant result table")
		jsonPath = fs.String("json", "", "write the results as JSON to this file")
		quiet    = fs.Bool("quiet", false, "suppress the progress line")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprof  = fs.String("memprofile", "", "write a memory profile to this file after the sweep")
		remote   = fs.String("remote", "", "run through a rtossimd daemon at this address instead of in process")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: rtossim sweep [flags] sweep.json\n\n")
		fmt.Fprintf(fs.Output(), "The sweep file names a base scenario and the axes to cross, e.g.:\n")
		fmt.Fprintf(fs.Output(), `  {"scenario": "figure6.json", "engines": ["procedural", "threaded"],`+"\n")
		fmt.Fprintf(fs.Output(), `   "policies": ["priority", "edf"], "speeds": [0.5, 1, 2], "seeds": [1, 2, 3]}`+"\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	specPath := fs.Arg(0)
	specData, err := os.ReadFile(specPath)
	if err != nil {
		fatal(err)
	}
	spec, err := batch.ParseSpec(specData)
	if err != nil {
		fatal(err)
	}
	if spec.Scenario == "" {
		fatal(fmt.Errorf("sweep spec %s names no base scenario", specPath))
	}
	// The base scenario path is relative to the spec file.
	scenPath := spec.Scenario
	if !filepath.IsAbs(scenPath) {
		scenPath = filepath.Join(filepath.Dir(specPath), scenPath)
	}
	base, err := os.ReadFile(scenPath)
	if err != nil {
		fatal(err)
	}
	desc, err := scenario.Parse(base)
	if err != nil {
		fatal(fmt.Errorf("base scenario %s: %w", scenPath, err))
	}

	if *remote != "" {
		specJSON, err := injectWorkers(specData, *workers)
		if err != nil {
			fatal(err)
		}
		remoteSweep(*remote, specJSON, base, *jsonPath, *quiet)
		return
	}

	opts := runner.SweepOptions{Workers: *workers, NoTable: !*table}
	if !*quiet {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	stopCPUProfile := startCPUProfile(*cpuprof)
	res, err := runner.SweepParsed(spec, desc, opts)
	stopCPUProfile()
	writeMemProfile(*memprof)
	if err != nil {
		fatal(err)
	}

	os.Stdout.Write(res.Report)

	if *jsonPath != "" {
		data, err := res.ResultsJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	os.Exit(res.ExitCode())
}
