package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/metrics"
	"repro/internal/psim"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the three in-process workloads. Each runs ops back to
// back until the window closes (a closed loop: the next op starts when the
// previous one returns). Only the call into the program is timed; each op's
// output is checked after that call returns.

// defaultArtifacts are the artifacts the daemon renders for a simulate job
// that names none.
var defaultArtifacts = []string{"perfetto", "metrics"}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 3

// modelsPerRun is how many seeded inputs an in-process workload cycles
// through. Host cost moves with model size in steps (buffer growth, for
// one), so with a single input per run the figures would depend on which
// side of a step the seed fell; cycling through several keeps runs made
// with different seeds comparable.
const modelsPerRun = 8

// subSeed is the seed of input k of a run.
func subSeed(seed uint64, k int) uint64 { return seed*modelsPerRun + uint64(k) }

// inputOf is the input index of op i: consecutive pairs of ops share an
// input, so that the even (untraced) and odd (traced) ops of a traced run
// cover the same inputs.
func inputOf(i int) int { return (i / 2) % modelsPerRun }

// fingerprintOf sums the exact simulated statistics of a metrics registry.
func fingerprintOf(reg metrics.Snapshot) fingerprint {
	var f fingerprint
	for _, m := range reg.Metrics {
		switch m.Name {
		case "rtos_context_switches_total":
			f.ContextSwitches += uint64(m.Value)
		case "rtos_deadline_misses_total":
			f.DeadlineMisses += uint64(m.Value)
		}
	}
	return f
}

// resultFingerprint reads a runner.Result's statistics; it needs the
// metrics artifact.
func resultFingerprint(res *runner.Result) (fingerprint, error) {
	var snap metrics.Snapshot
	if err := json.Unmarshal(res.Artifacts["metrics"], &snap); err != nil {
		return fingerprint{}, fmt.Errorf("decoding metrics artifact: %w", err)
	}
	f := fingerprintOf(snap)
	f.SimEndPs = int64(res.End)
	f.Activations = res.Activations
	f.DeltaCycles = res.DeltaCycles
	return f, nil
}

// respellings renders n respellings of a document, all with one hash.
func respellings(doc obj, seed uint64, n int) [][]byte {
	r := newRNG(seed, streamSpelling)
	out := make([][]byte, n)
	for i := range out {
		out[i] = render(doc, spelling{rng: r})
	}
	return out
}

func simMS(t sim.Time) float64 { return msOf(time.Duration(t / 1000)) }

// loopStats accumulates a closed loop's samples.
type loopStats struct {
	opMS, hitMS []float64
	allocBytes  uint64
}

// closedLoop runs op until the window closes. op returns the host duration
// and heap bytes of its call into the program, and an error when the call
// failed or its output did not check. After each op, outside its timing,
// hit (when not nil) takes one hit-path sample, so that the samples spread
// over the window like the ops.
func closedLoop(cfg config, out *outcome, op func(i int) (time.Duration, uint64, error), hit *hitPath) loopStats {
	var st loopStats
	deadline := time.Now().Add(cfg.window)
	for i := 0; time.Now().Before(deadline); i++ {
		out.attempted++
		d, alloc, err := op(i)
		if err != nil {
			out.fail("op %d: %v", i, err)
		} else {
			st.opMS = append(st.opMS, msOf(d))
			st.allocBytes += alloc
		}
		if hit == nil {
			continue
		}
		out.attempted++
		if d, err = hit.sample(i); err != nil {
			out.fail("hit path %d: %v", i, err)
			continue
		}
		st.hitMS = append(st.hitMS, msOf(d))
	}
	return st
}

// hitPath is the part of a daemon cache hit that does not depend on HTTP:
// parsing a respelled copy of an input and computing its canonical content
// hash, the key the daemon's result cache is looked up by.
type hitPath struct {
	spellings [][][]byte // per input, its respellings
	hashes    []string   // per input, its canonical content hash
}

func (h *hitPath) add(spellings [][]byte, hash string) {
	h.spellings = append(h.spellings, spellings)
	h.hashes = append(h.hashes, hash)
}

// sample times the hit path on a respelling of op i's input.
func (h *hitPath) sample(i int) (time.Duration, error) {
	k := inputOf(i)
	doc := h.spellings[k][(i/(2*modelsPerRun))%len(h.spellings[k])]
	start := time.Now()
	got, err := scenario.HashBytes(doc)
	d := time.Since(start)
	if err == nil && got != h.hashes[k] {
		err = fmt.Errorf("hash %s, want %s", got, h.hashes[k])
	}
	return d, err
}

// endToEndInProc fills the end-to-end metrics of an in-process workload.
// Every op computes its result afresh (nothing caches it on this path), so
// the miss latency is the op latency; simMS and configs are the simulated
// milliseconds and configurations an average op covers. The rates divide
// them by the median op time, which a few slow ops do not move.
func endToEndInProc(out *outcome, st loopStats, setup, simMS, configs float64) {
	n := float64(len(st.opMS))
	p50 := median(st.opMS)
	out.values["setup_s"] = setup
	out.values["op_ms_p50"] = p50
	out.values["op_ms_p90"] = quantile(st.opMS, 0.9)
	out.values["miss_ms_p50"] = p50
	out.values["hit_ms_p50"] = median(st.hitMS)
	if p50 > 0 {
		out.values["sim_ms_per_s"] = simMS * 1000 / p50
		out.values["variants_per_s"] = configs * 1000 / p50
	}
	if n > 0 {
		out.values["alloc_mb_per_op"] = float64(st.allocBytes) / n / 1e6
	}
	out.notes = append(out.notes, fmt.Sprintf("samples: %d ops, %d hit-path samples (p90 needs >= 100 ops)",
		len(st.opMS), len(st.hitMS)))
}

// timeOp runs fn and reports its host duration and heap bytes allocated.
func timeOp(fn func() error) (time.Duration, uint64, error) {
	a0 := heapAllocBytes()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	return d, heapAllocBytes() - a0, err
}

// ---- long-soc and sharded: one runner.Run per op ----

// runInput is one input of a runner.Run workload with its reference result.
type runInput struct {
	data      []byte
	spellings [][]byte // respellings of data, for the hit path
	hash      string   // canonical content hash of data
	ref       *runner.Result
	digests   map[string][32]byte
	fp        fingerprint
	seq       seqRef // the sequential engine's run (sharded only)
}

// newRunInput generates an input from its document.
func newRunInput(doc obj, seed uint64) (*runInput, error) {
	in := &runInput{data: render(doc, spelling{}), spellings: respellings(doc, seed, 8)}
	var err error
	in.hash, err = scenario.HashBytes(in.data)
	return in, err
}

// setRef makes res the reference the input's ops are checked against.
func (in *runInput) setRef(res *runner.Result) (err error) {
	if res.SimError != "" {
		return fmt.Errorf("reference run failed: %s", res.SimError)
	}
	in.ref = res
	in.digests = map[string][32]byte{"report": sha256.Sum256(res.Report)}
	for name, a := range res.Artifacts {
		in.digests[name] = sha256.Sum256(a)
	}
	in.fp, err = resultFingerprint(res)
	return err
}

// check compares a run with the input's reference: report and artifact
// digests, and the simulated statistics.
func (in *runInput) check(res *runner.Result) error {
	if res.SimError != "" {
		return fmt.Errorf("simulation failed: %s", res.SimError)
	}
	if sha256.Sum256(res.Report) != in.digests["report"] {
		return fmt.Errorf("report differs from the reference")
	}
	if len(res.Artifacts) != len(in.ref.Artifacts) {
		return fmt.Errorf("%d artifacts, want %d", len(res.Artifacts), len(in.ref.Artifacts))
	}
	for name, a := range res.Artifacts {
		if sha256.Sum256(a) != in.digests[name] {
			return fmt.Errorf("artifact %s differs from the reference", name)
		}
	}
	fp, err := resultFingerprint(res)
	if err != nil {
		return err
	}
	if fp != in.fp {
		return fmt.Errorf("fingerprint %+v, want %+v", fp, in.fp)
	}
	return nil
}

// runW is a workload whose op is one runner.Run, on the inputs in turn.
type runW struct {
	opts   runner.Options
	inputs []*runInput
}

// op times one runner.Run and checks its result.
func (w *runW) op(i int) (time.Duration, uint64, error) {
	in := w.inputs[inputOf(i)]
	var res *runner.Result
	d, alloc, err := timeOp(func() (err error) {
		res, err = runner.Run(in.data, w.opts, "")
		return err
	})
	if err != nil {
		return d, alloc, err
	}
	return d, alloc, in.check(res)
}

// fingerprint sums the inputs' fingerprints.
func (w *runW) fingerprint() fingerprint {
	var f fingerprint
	for _, in := range w.inputs {
		f.add(in.fp)
	}
	return f
}

// meanSimMS is the simulated milliseconds of an average op.
func (w *runW) meanSimMS() float64 {
	total := 0.0
	for _, in := range w.inputs {
		total += simMS(in.ref.End)
	}
	return total / float64(len(w.inputs))
}

// hitPath is the cache-key computation on the inputs.
func (w *runW) hitPath() *hitPath {
	h := &hitPath{}
	for _, in := range w.inputs {
		h.add(in.spellings, in.hash)
	}
	return h
}

// layerCounts sets the per-layer counts of one cycle through the inputs and
// the host cost per kernel event.
func (w *runW) layerCounts(out *outcome) {
	var acts, deltas, switches, preempt uint64
	perfetto := make([]float64, len(w.inputs))
	for k, in := range w.inputs {
		acts += in.ref.Activations
		deltas += in.ref.DeltaCycles
		switches += in.fp.ContextSwitches
		preempt += preemptionsOf(in.ref.Artifacts["metrics"])
		perfetto[k] = float64(len(in.ref.Artifacts["perfetto"])) / 1e6
	}
	simCounts(out, acts, deltas, switches, len(w.inputs))
	out.values["rtos.preemptions"] = float64(preempt)
	out.values["trace.perfetto_mb"] = median(perfetto)
}

// untracedEvenOps wraps a traced-run op: even ops run the untraced op and
// record its latency in untraced by op, odd ops run traced.
func untracedEvenOps(plain, traced func(int) (time.Duration, uint64, error), untraced map[int]float64) func(int) (time.Duration, uint64, error) {
	return func(i int) (time.Duration, uint64, error) {
		if i%2 == 1 {
			return traced(i)
		}
		d, alloc, err := plain(i)
		if err == nil {
			untraced[i] = msOf(d)
		}
		return d, alloc, err
	}
}

func runLongSoC(cfg config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	w := &runW{opts: runner.Options{Artifacts: defaultArtifacts}}
	setup, err := timeSetups(setupReps, func() error {
		w.inputs = nil
		for k := 0; k < modelsPerRun; k++ {
			in, err := newRunInput(socModel(subSeed(cfg.seed, k), false), subSeed(cfg.seed, k))
			if err != nil {
				return err
			}
			ref, err := runner.Run(in.data, w.opts, "")
			if err != nil {
				return err
			}
			if err := in.setRef(ref); err != nil {
				return err
			}
			w.inputs = append(w.inputs, in)
		}
		_, _, err := w.op(0) // warm-up
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	out.fp = w.fingerprint()

	if cfg.tr == nil {
		st := closedLoop(cfg, out, w.op, w.hitPath())
		endToEndInProc(out, st, setup, w.meanSimMS(), 1)
		return out, nil
	}

	// Traced: even ops run runner.Run untraced, odd ops make runner.Run's
	// layer calls one by one inside spans.
	untraced := map[int]float64{}
	st := closedLoop(cfg, out, untracedEvenOps(w.op, func(i int) (time.Duration, uint64, error) {
		in := w.inputs[inputOf(i)]
		return timeOp(func() error { return tracedRun(cfg.tr, i, in.data, in.digests) })
	}, untraced), nil)
	self := cfg.tr.selfByOp()
	layerValues(out, self)
	// Op i runs untraced and op i+1 traced on the same input.
	out.values["runner.self_ms"] = cfg.tr.pairedSelfMS(untraced, 1, runChildren)
	w.layerCounts(out)
	tracingOverhead(out, cfg.tr, untraced, "op")
	out.notes = append(out.notes, fmt.Sprintf("samples: %d ops (%d untraced)", len(st.opMS), len(untraced)))
	return out, nil
}

// runChildren are the spans tracedRun opens inside a runner.Run.
var runChildren = []string{"scenario.parse", "scenario.build", "sim.run", "trace.stats", "trace.perfetto", "metrics.json"}

// tracedRun makes runner.Run's calls into the layers itself, each in a
// span, and checks the artifacts it renders against digests.
func tracedRun(tr *tracer, i int, data []byte, digests map[string][32]byte) error {
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	var desc *scenario.System
	var err error
	tr.call("scenario.parse", i, root, func() { desc, err = runner.Prepare(data, runner.Options{}) })
	if err != nil {
		return err
	}
	var built *scenario.Built
	tr.call("scenario.build", i, root, func() { built, err = desc.Build() })
	if err != nil {
		return err
	}
	tr.call("sim.run", i, root, func() { _, err = built.RunChecked() })
	if err != nil {
		return err
	}
	sys := built.Sys
	tr.call("trace.stats", i, root, func() {
		_ = sys.Rec.ComputeStats(0).String() + sys.Constraints.Report()
	})
	var perfetto, reg bytes.Buffer
	tr.call("trace.perfetto", i, root, func() {
		err = sys.Rec.WritePerfetto(&perfetto, trace.PerfettoOptions{Misses: sys.Constraints.PerfettoMisses()})
	})
	if err != nil {
		return err
	}
	tr.call("metrics.json", i, root, func() { err = sys.Metrics.WriteJSON(&reg) })
	if err != nil {
		return err
	}
	// The hash is not part of a run; it is what the daemon adds per
	// submission, timed here on the same input.
	tr.call("scenario.hash", i, -1, func() { _, err = desc.Hash() })
	if err != nil {
		return err
	}
	if digests == nil {
		return nil
	}
	if sha256.Sum256(perfetto.Bytes()) != digests["perfetto"] || sha256.Sum256(reg.Bytes()) != digests["metrics"] {
		return fmt.Errorf("layer-by-layer artifacts differ from runner.Run's")
	}
	return nil
}

// layerValues sets each "<span>_ms" per-layer metric to the median per-op
// self time of that span.
func layerValues(out *outcome, self map[string][]float64) {
	for _, d := range perLayer {
		if xs, ok := self[strings.TrimSuffix(d.name, "_ms")]; ok && strings.HasSuffix(d.name, "_ms") {
			out.values[d.name] = median(xs)
		}
	}
}

// simCounts sets the kernel effort counts, made over ops ops, and the host
// cost per event of an average op.
func simCounts(out *outcome, activations, deltas, switches uint64, ops int) {
	out.values["sim.activations"] = float64(activations)
	out.values["sim.delta_cycles"] = float64(deltas)
	out.values["rtos.context_switches"] = float64(switches)
	if ev := activations + deltas; ev > 0 {
		out.values["sim.ns_per_event"] = out.values["sim.run_ms"] * 1e6 * float64(ops) / float64(ev)
	}
}

func preemptionsOf(metricsJSON []byte) uint64 {
	var snap metrics.Snapshot
	if json.Unmarshal(metricsJSON, &snap) != nil {
		return 0
	}
	var n uint64
	for _, m := range snap.Metrics {
		if m.Name == "rtos_preemptions_total" {
			n += uint64(m.Value)
		}
	}
	return n
}

// tracingOverhead reports traced against untraced op latency and the share
// of traced op time spent inside the tracer.
func tracingOverhead(out *outcome, tr *tracer, untraced map[int]float64, opSpan string) {
	tracedOps := tr.durations(opSpan)
	var plain []float64
	for _, ms := range untraced {
		plain = append(plain, ms)
	}
	out.values["bench.op_ms_p50_untraced"] = median(plain)
	out.values["bench.op_ms_p50_traced"] = median(tracedOps)
	if total := sum(tracedOps); total > 0 {
		out.values["bench.span_overhead_pct"] = 100 * msOf(tr.cost) / total
	}
}

// ---- sharded ----

// seqRef is the sequential engine's run of the sharded workload's model.
type seqRef struct {
	sig string // trace.Signature
	end sim.Time
	fp  fingerprint
}

func runSharded(cfg config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	const shards = 2
	w := &runW{opts: runner.Options{Shards: shards, Artifacts: defaultArtifacts}}
	setup, err := timeSetups(setupReps, func() error {
		w.inputs = nil
		for k := 0; k < modelsPerRun; k++ {
			in, err := newRunInput(socModel(subSeed(cfg.seed, k), true), subSeed(cfg.seed, k))
			if err != nil {
				return err
			}
			if in.seq, err = sequentialRun(nil, -1, in.data); err != nil {
				return fmt.Errorf("sequential reference: %w", err)
			}
			// The sharded engine, driven layer by layer, must reproduce the
			// sequential trace; runner.Run's sharded result must then agree
			// with the sequential outcome. Ops are checked against that result.
			if err := psimRun(nil, -1, in.data, shards, in.seq); err != nil {
				return err
			}
			ref, err := runner.Run(in.data, w.opts, "")
			if err != nil {
				return err
			}
			if err := in.setRef(ref); err != nil {
				return err
			}
			if ref.End != in.seq.end || ref.Finish != "limit" ||
				in.fp.ContextSwitches != in.seq.fp.ContextSwitches || in.fp.DeadlineMisses != in.seq.fp.DeadlineMisses {
				return fmt.Errorf("sharded run (end %v, %s, %+v) differs from the sequential reference (end %v, %+v)",
					ref.End, ref.Finish, in.fp, in.seq.end, in.seq.fp)
			}
			w.inputs = append(w.inputs, in)
		}
		_, _, err := w.op(0) // warm-up
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	out.fp = w.fingerprint()

	if cfg.tr == nil {
		st := closedLoop(cfg, out, w.op, w.hitPath())
		endToEndInProc(out, st, setup, w.meanSimMS(), 1)
		return out, nil
	}

	// Traced: even ops run runner.Run untraced; odd ops alternate between
	// the sharded engine driven layer by layer and the sequential engine on
	// the same model (for psim.speedup).
	untraced := map[int]float64{}
	st := closedLoop(cfg, out, untracedEvenOps(w.op, func(i int) (time.Duration, uint64, error) {
		in := w.inputs[inputOf(i)]
		if (i/2)/modelsPerRun%2 == 0 {
			return timeOp(func() error { return psimRun(cfg.tr, i, in.data, shards, in.seq) })
		}
		return timeOp(func() error {
			got, err := sequentialRun(cfg.tr, i, in.data)
			if err == nil && got != in.seq {
				err = fmt.Errorf("sequential run differs from the set-up reference")
			}
			return err
		})
	}, untraced), nil)
	self := cfg.tr.selfByOp()
	layerValues(out, self)
	if p := median(self["psim.run"]); p > 0 {
		out.values["psim.speedup"] = (median(self["scenario.build"]) + median(self["sim.run"])) / p
	}
	w.layerCounts(out)
	tracingOverhead(out, cfg.tr, untraced, "op")
	out.notes = append(out.notes, fmt.Sprintf("samples: %d ops (%d untraced)", len(st.opMS), len(untraced)))
	return out, nil
}

// psimRun drives the sharded engine the way runner.Run does — prepare,
// partition, psim.Run, merge the shard traces — each call in a span, and
// checks the outcome and trace signature against the sequential reference.
func psimRun(tr *tracer, i int, data []byte, shards int, seq seqRef) error {
	root := tr.begin("op", i, -1)
	var (
		desc *scenario.System
		plan *scenario.ShardPlan
		pres *psim.Result
		rec  *trace.Recorder
		err  error
	)
	tr.call("scenario.parse", i, root, func() { desc, err = runner.Prepare(data, runner.Options{Shards: shards}) })
	if err != nil {
		return err
	}
	tr.call("scenario.partition", i, root, func() { plan, err = desc.Partition(shards) })
	if err != nil {
		return err
	}
	tr.call("psim.run", i, root, func() { pres, err = psim.Run(desc, plan) })
	if err != nil {
		return err
	}
	tr.call("trace.merge", i, root, func() {
		recs := make([]*trace.Recorder, len(pres.Builts))
		for k, b := range pres.Builts {
			recs[k] = b.Sys.Rec
		}
		rec = trace.MergeRecorders(recs, pres.End)
	})
	tr.end(root)

	if len(plan.Groups) != shards {
		return fmt.Errorf("plan has %d groups, want %d", len(plan.Groups), shards)
	}
	if pres.Err != nil || pres.Finish != sim.FinishLimit || pres.End != seq.end {
		return fmt.Errorf("sharded outcome (%v, %v, %v) differs from the sequential reference", pres.End, pres.Finish, pres.Err)
	}
	var fp fingerprint
	for _, b := range pres.Builts {
		fp.add(fingerprintOf(b.Sys.Metrics.Snapshot()))
	}
	if fp.ContextSwitches != seq.fp.ContextSwitches || fp.DeadlineMisses != seq.fp.DeadlineMisses {
		return fmt.Errorf("context switches/misses %d/%d, sequential %d/%d",
			fp.ContextSwitches, fp.DeadlineMisses, seq.fp.ContextSwitches, seq.fp.DeadlineMisses)
	}
	if trace.Signature(rec, pres.End) != seq.sig {
		return fmt.Errorf("sharded trace signature differs from the sequential reference")
	}
	return nil
}

// sequentialRun runs a model on the sequential kernel, build and run each in
// a span, and returns its reference values.
func sequentialRun(tr *tracer, i int, data []byte) (seqRef, error) {
	root := tr.begin("seq", i, -1)
	defer tr.end(root)
	desc, err := scenario.Parse(data)
	if err != nil {
		return seqRef{}, err
	}
	var built *scenario.Built
	tr.call("scenario.build", i, root, func() { built, err = desc.Build() })
	if err != nil {
		return seqRef{}, err
	}
	tr.call("sim.run", i, root, func() { _, err = built.RunChecked() })
	if err != nil {
		return seqRef{}, err
	}
	sys := built.Sys
	fp := fingerprintOf(sys.Metrics.Snapshot())
	fp.SimEndPs = int64(sys.Now())
	fp.Activations = sys.K.Activations()
	fp.DeltaCycles = sys.K.DeltaCount()
	return seqRef{sig: trace.Signature(sys.Rec, sys.Now()), end: sys.Now(), fp: fp}, nil
}

// ---- sweep ----

// sweepInput is one base scenario and spec of the sweep workload with its
// workers=1 reference.
type sweepInput struct {
	base      []byte
	spellings [][]byte // respellings of base, for the hit path
	hash      string
	spec      *batch.Spec
	ref       *runner.SweepResult
	refJSON   []byte
	fp        fingerprint
	simMS     float64
}

type sweepW struct {
	inputs []*sweepInput
}

func newSweepInput(seed uint64) (*sweepInput, error) {
	doc, specRaw := sweepInputs(seed)
	in := &sweepInput{base: render(doc, spelling{}), spellings: respellings(doc, seed, 8)}
	var err error
	if in.hash, err = scenario.HashBytes(in.base); err != nil {
		return nil, err
	}
	if in.spec, err = batch.ParseSpec(specRaw); err != nil {
		return nil, err
	}
	if in.ref, err = runner.Sweep(in.spec, in.base, runner.SweepOptions{Workers: 1}); err != nil {
		return nil, err
	}
	if in.ref.Summary.Failures > 0 {
		return nil, fmt.Errorf("reference sweep has %d failed variants", in.ref.Summary.Failures)
	}
	if in.refJSON, err = in.ref.ResultsJSON(); err != nil {
		return nil, err
	}
	for _, r := range in.ref.Results {
		m := r.Metrics
		in.fp.add(fingerprint{SimEndPs: int64(m.End), Activations: m.Activations, DeltaCycles: m.DeltaCycles,
			ContextSwitches: uint64(m.ContextSwitches), DeadlineMisses: uint64(m.DeadlineMisses)})
		in.simMS += simMS(m.End)
	}
	return in, nil
}

func runSweep(cfg config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	w := &sweepW{}
	setup, err := timeSetups(setupReps, func() error {
		w.inputs = nil
		for k := 0; k < modelsPerRun; k++ {
			in, err := newSweepInput(subSeed(cfg.seed, k))
			if err != nil {
				return err
			}
			w.inputs = append(w.inputs, in)
		}
		_, _, err := w.op(cfg, nil, 0) // warm-up
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	var simMS, variants float64
	hit := &hitPath{}
	for _, in := range w.inputs {
		out.fp.add(in.fp)
		simMS += in.simMS / modelsPerRun
		variants += float64(len(in.ref.Results)) / modelsPerRun
		hit.add(in.spellings, in.hash)
	}

	plain := func(i int) (time.Duration, uint64, error) { return w.op(cfg, nil, i) }
	if cfg.tr == nil {
		st := closedLoop(cfg, out, plain, hit)
		endToEndInProc(out, st, setup, simMS, variants)
		return out, nil
	}

	// Traced: even ops untraced; odd ops time every variant through the
	// batch Lookup/Store hooks and time the per-variant scenario calls on
	// the base scenario.
	untraced, busy := map[int]float64{}, []float64(nil)
	st := closedLoop(cfg, out, untracedEvenOps(plain, func(i int) (time.Duration, uint64, error) {
		d, alloc, err := w.op(cfg, cfg.tr, i)
		if err == nil {
			busy = append(busy, w.busy(cfg.tr, i, d, cfg.nproc))
		}
		w.scenarioCalls(cfg.tr, i)
		return d, alloc, err
	}, untraced), nil)
	layerValues(out, cfg.tr.selfByOp())
	out.values["batch.variant_ms_p50"] = median(cfg.tr.durations("batch.variant"))
	out.values["batch.busy_ratio"] = median(busy)
	tracingOverhead(out, cfg.tr, untraced, "op")
	var acts, deltas uint64
	for _, in := range w.inputs {
		for _, r := range in.ref.Results {
			acts += r.Metrics.Activations
			deltas += r.Metrics.DeltaCycles
		}
	}
	simCounts(out, acts, deltas, out.fp.ContextSwitches, modelsPerRun)
	out.notes = append(out.notes, fmt.Sprintf("samples: %d ops (%d untraced), %.0f variants per op",
		len(st.opMS), len(untraced), variants))
	return out, nil
}

// op runs one sweep with workers = nproc and checks it against the
// workers=1 reference. With a tracer, each variant is a span from the
// Lookup hook (called before the variant runs) to the Store hook (called
// after it succeeds).
func (w *sweepW) op(cfg config, tr *tracer, i int) (time.Duration, uint64, error) {
	in := w.inputs[inputOf(i)]
	opts := runner.SweepOptions{Workers: cfg.nproc}
	var root int
	if tr != nil {
		open := make([]int, len(in.ref.Results))
		opts.Lookup = func(v batch.Variant) (batch.Result, bool) {
			open[v.Index] = tr.begin("batch.variant", i, root)
			return batch.Result{}, false
		}
		opts.Store = func(v batch.Variant, _ batch.Result) { tr.end(open[v.Index]) }
	}
	var res *runner.SweepResult
	d, alloc, err := timeOp(func() (err error) {
		root = tr.begin("op", i, -1)
		res, err = runner.Sweep(in.spec, in.base, opts)
		tr.end(root)
		return err
	})
	if err != nil {
		return d, alloc, err
	}
	got, err := res.ResultsJSON()
	if err != nil {
		return d, alloc, err
	}
	if !bytes.Equal(got, in.refJSON) || !bytes.Equal(res.Report, in.ref.Report) {
		return d, alloc, fmt.Errorf("sweep results differ from the workers=1 reference")
	}
	return d, alloc, nil
}

// busy is the share of the op's worker capacity spent inside variants.
func (w *sweepW) busy(tr *tracer, op int, wall time.Duration, workers int) float64 {
	var inside time.Duration
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.op == op && s.name == "batch.variant" {
			inside += s.end - s.start
		}
	}
	tr.mu.Unlock()
	return inside.Seconds() / (wall.Seconds() * float64(workers))
}

// scenarioCalls times the scenario layer's per-variant calls (parse,
// canonical hash, build) on the base scenario, as root spans of the op.
func (w *sweepW) scenarioCalls(tr *tracer, i int) {
	var desc *scenario.System
	base := w.inputs[inputOf(i)].base
	tr.call("scenario.parse", i, -1, func() { desc, _ = scenario.Parse(base) })
	if desc == nil {
		return
	}
	tr.call("scenario.hash", i, -1, func() { _, _ = desc.Hash() })
	tr.call("scenario.build", i, -1, func() {
		if b, err := desc.Build(); err == nil {
			b.Sys.Shutdown()
		}
	})
}
