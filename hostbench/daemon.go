package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/client"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/trace"
)

// The daemon workload serves an in-process server.Server with a journal
// over loopback HTTP and drives it open-loop through one internal/client
// Client: op i starts at i/daemonRate seconds after the start on its own
// goroutine, whatever happened to the ops before it, and its latency counts
// from that due time. At most maxInFlight ops are outstanding; beyond that
// the generator waits, and gen.late_ms_p90 shows it.
const (
	// daemonRate is the offered load in ops per second. On a 2-core host
	// the process is then about 0.2 CPU-busy (each run prints the share it
	// measured). At 300/s (0.4 busy) a host slowdown already tipped some
	// runs over the latency knee, tripling op_ms_p50, so the rate is half
	// of that.
	daemonRate = 150.0
	// maxInFlight bounds the ops outstanding at once.
	maxInFlight = 32
	// hotSetSize scenarios are resubmitted, respelled, as cache hits; it is
	// well under the server's default cache of 128 results.
	hotSetSize = 8
	// hotSpellings is the number of distinct spellings per hot scenario.
	hotSpellings = 8
	// journalExtra is the number of jobs beyond the hot set in the
	// pre-filled journal that set-up replays.
	journalExtra = 48
	// Shares of the op mix; fresh simulate jobs make up the rest. The
	// counts are exact and only their order is drawn from the seed. With
	// fewer than half hits and fewer than a tenth sweeps, op_ms_p50 and
	// op_ms_p90 both fall inside the fresh jobs' latencies rather than on
	// the edge between two kinds of op.
	shareHit   = 0.30
	shareSweep = 0.04
)

type opKind int

const (
	opHit opKind = iota
	opFresh
	opSweep
)

// daemonOp is one scheduled request.
type daemonOp struct {
	kind opKind
	hot  int    // hot-set index (hits)
	doc  []byte // scenario document
	spec []byte // sweep spec (sweeps)
}

// opRecord is what one op observed.
type opRecord struct {
	ok, refused bool
	// lat runs from the op's due time, svc from its submission, both to
	// the output's arrival.
	lat, svc, late, submit, wait, fetch time.Duration
	created, started, finished          time.Time
	cacheHit                            bool
	endPs                               int64
	body                                []byte // report (simulate) or results JSON (sweep)
}

type daemonW struct {
	cfg     config
	journal []byte // the pre-filled journal file

	ops      []daemonOp
	hotDocs  [][]byte // canonical spelling per hot scenario
	hotRefs  []*runner.Result
	hotFP    []fingerprint
	dir      string
	srv      *server.Server
	httpSrv  *http.Server
	addr     string
	cl       *client.Client
	replayMS []float64
}

func runDaemon(cfg config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, fpScope: fmt.Sprintf("-w%d", int(cfg.window/time.Second))}
	root := filepath.Join(outDir, fmt.Sprintf("daemon-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	w := &daemonW{cfg: cfg}
	if err := w.prefill(filepath.Join(root, "prefill")); err != nil {
		return nil, fmt.Errorf("pre-filling the journal: %w", err)
	}
	rep := 0
	setup, err := timeSetups(setupReps, func() error {
		rep++
		return w.setup(filepath.Join(root, fmt.Sprintf("life%d", rep)))
	}, w.teardown)
	if err != nil {
		return nil, err
	}
	defer w.teardown()

	hits0, miss0, err := w.cacheCounters()
	if err != nil {
		return nil, err
	}
	var cpu0 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &cpu0)
	alloc0 := heapAllocBytes()
	recs, window := w.drive()
	alloc := heapAllocBytes() - alloc0
	var cpu1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &cpu1)
	hits1, miss1, err := w.cacheCounters()
	if err != nil {
		return nil, err
	}

	// Post-verification, outside the measured window: every fresh job's
	// report must equal runner.Run on the same scenario and options, every
	// sweep job's results a workers=1 runner.Sweep.
	fps, configs, err := w.verify(recs, out)
	if err != nil {
		return nil, err
	}
	for _, f := range fps {
		out.fp.add(f)
	}

	var all, hit, miss, queue, run, submit, fetch, late, untraced, traced []float64
	var missSimMS, missRunSec, runSec, done float64
	refused := 0
	for i, r := range recs {
		late = append(late, msOf(r.late))
		if r.refused {
			refused++
		}
		if !r.ok {
			continue
		}
		l := msOf(r.lat)
		all = append(all, l)
		if i%2 == 0 {
			untraced = append(untraced, l)
		} else {
			traced = append(traced, l)
		}
		submit = append(submit, msOf(r.submit))
		fetch = append(fetch, msOf(r.fetch))
		switch {
		case r.cacheHit:
			hit = append(hit, msOf(r.svc))
		case w.ops[i].kind != opSweep:
			miss = append(miss, msOf(r.svc))
			run = append(run, msOf(r.finished.Sub(r.started)))
			missSimMS += float64(r.endPs) / 1e9
			missRunSec += r.finished.Sub(r.started).Seconds()
		}
		if !r.cacheHit {
			queue = append(queue, msOf(r.started.Sub(r.created)))
			runSec += r.finished.Sub(r.started).Seconds()
			done += float64(configs[i])
		}
	}
	cpuSec := tv(cpu1.Utime) + tv(cpu1.Stime) - tv(cpu0.Utime) - tv(cpu0.Stime)
	out.notes = append(out.notes, fmt.Sprintf(
		"daemon: %d ops offered at %.0f/s (open loop, at most %d in flight) over %.2fs; %d hits, %d fresh, %d refused; process CPU busy %.2f of %d cores; worker busy %.2f; generator late p90 %.3fms",
		len(recs), daemonRate, maxInFlight, window.Seconds(), len(hit), len(miss), refused,
		cpuSec/window.Seconds()/float64(cfg.nproc), cfg.nproc, runSec/window.Seconds()/float64(cfg.nproc), quantile(late, 0.9)))

	if cfg.tr == nil {
		out.values["setup_s"] = setup
		out.values["op_ms_p50"] = median(all)
		out.values["op_ms_p90"] = quantile(all, 0.9)
		out.values["hit_ms_p50"] = median(hit)
		out.values["miss_ms_p50"] = median(miss)
		if missRunSec > 0 {
			out.values["sim_ms_per_s"] = missSimMS / missRunSec
			out.values["variants_per_s"] = done / runSec
		}
		out.values["alloc_mb_per_op"] = float64(alloc) / float64(len(recs)) / 1e6
		return out, nil
	}

	out.values["server.submit_ms_p50"] = median(submit)
	out.values["server.queue_wait_ms_p90"] = quantile(queue, 0.9)
	out.values["server.run_ms_p50"] = median(run)
	out.values["server.fetch_ms_p50"] = median(fetch)
	if lookups := (hits1 - hits0) + (miss1 - miss0); lookups > 0 {
		out.values["server.cache_hit_ratio"] = float64(hits1-hits0) / float64(lookups)
	}
	out.values["server.rejected"] = float64(refused) / float64(len(recs))
	out.values["gen.late_ms_p90"] = quantile(late, 0.9)
	out.values["journal.replay_ms"] = median(w.replayMS)
	out.values["bench.op_ms_p50_untraced"] = median(untraced)
	out.values["bench.op_ms_p50_traced"] = median(traced)
	if total := sum(traced); total > 0 {
		out.values["bench.span_overhead_pct"] = 100 * msOf(cfg.tr.cost) / total
	}
	return out, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// prefill writes the seeded journal that every set-up replays: the hot set
// plus journalExtra other small jobs, all finished.
func (w *daemonW) prefill(dir string) error {
	srv, err := server.New(server.Config{Shards: w.cfg.nproc, Journal: dir})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var ids []string
	for i := 0; i < hotSetSize+journalExtra; i++ {
		doc := daemonJobModel(w.cfg.seed, streamHot, i)
		if i >= hotSetSize {
			doc = daemonJobModel(w.cfg.seed, streamJournal, i)
		}
		job, err := srv.Submit(server.Request{Scenario: render(doc, spelling{})})
		if err != nil {
			srv.Close()
			return err
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/stream", nil))
	}
	srv.Close()
	w.journal, err = os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	return err
}

// setup generates the inputs and hot-set references, replays the journal
// into a new server, starts HTTP and runs the warm-up ops.
func (w *daemonW) setup(dir string) error {
	cfg := w.cfg
	w.hotDocs, w.hotRefs, w.hotFP = nil, nil, nil
	hotSpelled := make([][][]byte, hotSetSize)
	for h := 0; h < hotSetSize; h++ {
		doc := daemonJobModel(cfg.seed, streamHot, h)
		w.hotDocs = append(w.hotDocs, render(doc, spelling{}))
		hotSpelled[h] = respellings(doc, cfg.seed+uint64(h), hotSpellings)
		ref, err := runner.Run(w.hotDocs[h], runner.Options{Artifacts: defaultArtifacts}, "")
		if err != nil {
			return err
		}
		fp, err := resultFingerprint(ref)
		if err != nil {
			return err
		}
		w.hotRefs = append(w.hotRefs, ref)
		w.hotFP = append(w.hotFP, fp)
	}
	r := newRNG(cfg.seed, streamSchedule)
	n := int(daemonRate * cfg.window.Seconds())
	kinds := make([]opKind, n)
	hits, sweeps := int(float64(n)*shareHit+0.5), int(float64(n)*shareSweep+0.5)
	for i := range kinds {
		switch {
		case i < hits:
			kinds[i] = opHit
		case i < hits+sweeps:
			kinds[i] = opSweep
		default:
			kinds[i] = opFresh
		}
	}
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	w.ops = make([]daemonOp, n)
	fresh, sweep := 0, 0
	for i, k := range kinds {
		switch k {
		case opHit:
			h := r.IntN(hotSetSize)
			w.ops[i] = daemonOp{kind: opHit, hot: h, doc: hotSpelled[h][r.IntN(hotSpellings)]}
		case opFresh:
			w.ops[i] = daemonOp{kind: opFresh, doc: render(daemonJobModel(cfg.seed, streamFresh, fresh), spelling{})}
			fresh++
		case opSweep:
			base, spec := daemonSweepSpec(cfg.seed, sweep)
			w.ops[i] = daemonOp{kind: opSweep, doc: base, spec: spec}
			sweep++
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), w.journal, 0o644); err != nil {
		return err
	}
	start := time.Now()
	srv, err := server.New(server.Config{Shards: cfg.nproc, Journal: dir})
	if err != nil {
		return err
	}
	w.replayMS = append(w.replayMS, msOf(time.Since(start)))
	w.srv, w.dir = srv, dir
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = ln.Addr().String()
	w.httpSrv = &http.Server{Handler: srv.Handler()}
	go w.httpSrv.Serve(ln)
	w.cl = client.New(w.addr)
	w.cl.SubmitRetries = 0 // a 503 counts as refused, not hidden by backoff

	// Warm-up: two hits and two fresh jobs outside the schedule.
	for k := 0; k < 4; k++ {
		op := daemonOp{kind: opHit, hot: k, doc: hotSpelled[k][0]}
		if k >= 2 {
			op = daemonOp{kind: opFresh, doc: render(daemonJobModel(cfg.seed, streamFresh, 1_000_000+k), spelling{})}
		}
		rec := w.do(op, time.Now(), -1)
		if !rec.ok || (op.kind == opHit && !rec.cacheHit) {
			return fmt.Errorf("warm-up op %d failed (cache hit %v)", k, rec.cacheHit)
		}
	}
	return nil
}

func (w *daemonW) teardown() {
	if w.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.httpSrv.Shutdown(ctx) // idle connections only; no op is in flight
		cancel()
		w.httpSrv = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// drive runs the open-loop schedule and returns every op's record.
func (w *daemonW) drive() ([]opRecord, time.Duration) {
	recs := make([]opRecord, len(w.ops))
	slots := make(chan struct{}, maxInFlight)
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range w.ops {
		due := start.Add(time.Duration(float64(i) / daemonRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			recs[i] = w.do(w.ops[i], due, i)
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// do performs one op: submit, wait for the terminal state unless the submit
// already returned it (cache hits), and fetch the output. Odd ops are
// traced when a tracer is set.
func (w *daemonW) do(op daemonOp, due time.Time, i int) opRecord {
	rec := opRecord{late: time.Since(due)}
	req := server.Request{Scenario: op.doc}
	if op.kind == opSweep {
		req = server.Request{Kind: server.KindSweep, Scenario: op.doc, Sweep: op.spec}
	}
	t0 := time.Now()
	job, err := w.cl.Submit(req)
	rec.submit = time.Since(t0)
	if err != nil {
		rec.refused = strings.Contains(err.Error(), "HTTP 503")
		return rec
	}
	t1 := time.Now()
	if !job.State.Terminal() {
		if job, err = w.cl.Wait(context.Background(), job.ID, nil); err != nil {
			return rec
		}
	}
	rec.wait = time.Since(t1)
	if job.State != server.StateDone {
		return rec
	}
	t2 := time.Now()
	if op.kind == opSweep {
		rec.body, err = w.cl.Results(job.ID)
	} else {
		rec.body, err = w.cl.Report(job.ID)
	}
	end := time.Now()
	rec.fetch = end.Sub(t2)
	rec.lat, rec.svc = end.Sub(due), end.Sub(t0)
	if err != nil {
		return rec
	}
	rec.ok = true
	rec.cacheHit = job.CacheHit
	rec.created, rec.started, rec.finished = job.Created, job.Started, job.Finished
	if job.Result != nil {
		rec.endPs = int64(job.Result.End)
	}
	if tr := w.cfg.tr; tr != nil && i >= 0 && i%2 == 1 {
		root := tr.add("op", i, -1, due, end)
		tr.add("gen.late", i, root, due, t0)
		tr.add("client.submit", i, root, t0, t1)
		tr.add("client.wait", i, root, t1, t1.Add(rec.wait))
		tr.add("client.fetch", i, root, t2, end)
		if !job.CacheHit {
			tr.add("server.queue", i, root, job.Created, job.Started)
			tr.add("server.run", i, root, job.Started, job.Finished)
		}
	}
	return rec
}

// cacheCounters reads the result-cache hit and miss counters from /metrics.
func (w *daemonW) cacheCounters() (hits, misses int64, err error) {
	resp, err := http.Get("http://" + w.addr + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "rtossimd_cache_hits_total":
			hits, err = strconv.ParseInt(val, 10, 64)
		case "rtossimd_cache_misses_total":
			misses, err = strconv.ParseInt(val, 10, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return hits, misses, sc.Err()
}

// verify checks every op's output against an in-process reference and
// returns each op's fingerprint and the configurations it covered. In a
// traced run it also makes runner.Run's layer calls on each fresh
// scenario, so the daemon's miss path gets its per-layer split.
func (w *daemonW) verify(recs []opRecord, out *outcome) ([]fingerprint, []int, error) {
	fps := make([]fingerprint, len(recs))
	configs := make([]int, len(recs))
	sweepRefs := map[string]*runner.SweepResult{}
	layers := layerSplit{runMS: map[int]float64{}}
	for i, r := range recs {
		op := w.ops[i]
		out.attempted++
		if !r.ok {
			if r.refused {
				out.fail("op %d refused (503)", i)
			} else {
				out.fail("op %d failed", i)
			}
			continue
		}
		switch op.kind {
		case opHit:
			// A hot scenario the LRU evicted is re-run: a miss, not an error.
			configs[i] = 1
			fps[i] = w.hotFP[op.hot]
			if !bytes.Equal(r.body, w.hotRefs[op.hot].Report) {
				out.fail("op %d: report of a hot-set resubmission differs from runner.Run", i)
			}
		case opFresh:
			configs[i] = 1
			start := time.Now()
			ref, err := runner.Run(op.doc, runner.Options{Artifacts: defaultArtifacts}, "")
			layers.runMS[len(recs)+i] = msOf(time.Since(start))
			if err != nil {
				return nil, nil, err
			}
			if fps[i], err = resultFingerprint(ref); err != nil {
				return nil, nil, err
			}
			if r.cacheHit || !bytes.Equal(r.body, ref.Report) {
				out.fail("op %d: report differs from runner.Run (cache hit %v)", i, r.cacheHit)
			}
			if w.cfg.tr != nil {
				if err := layers.add(w.cfg.tr, op.doc, len(recs)+i); err != nil {
					return nil, nil, err
				}
			}
		case opSweep:
			key := string(op.doc) + "\x00" + string(op.spec)
			ref, ok := sweepRefs[key]
			if !ok {
				spec, err := batch.ParseSpec(op.spec)
				if err != nil {
					return nil, nil, err
				}
				if ref, err = runner.Sweep(spec, op.doc, runner.SweepOptions{Workers: 1}); err != nil {
					return nil, nil, err
				}
				sweepRefs[key] = ref
			}
			want, err := ref.ResultsJSON()
			if err != nil {
				return nil, nil, err
			}
			if !bytes.Equal(r.body, want) {
				out.fail("op %d: sweep results differ from a workers=1 runner.Sweep", i)
			}
			configs[i] = len(ref.Results)
			for _, v := range ref.Results {
				m := v.Metrics
				fps[i].add(fingerprint{SimEndPs: int64(m.End), Activations: m.Activations, DeltaCycles: m.DeltaCycles,
					ContextSwitches: uint64(m.ContextSwitches), DeadlineMisses: uint64(m.DeadlineMisses)})
			}
		}
	}
	if w.cfg.tr != nil {
		layers.report(w.cfg.tr, out)
	}
	return fps, configs, nil
}

// layerSplit makes runner.Run's calls into the layers one by one on the
// daemon's fresh scenarios; with the whole runner.Run timed next to it
// (runMS), it splits a miss.
type layerSplit struct {
	runMS          map[int]float64 // runner.Run time by span op id
	events, simRun float64
	preempt        uint64
	switches       uint64
	acts, deltas   uint64
	perfettoBytes  []float64
}

func (l *layerSplit) add(tr *tracer, doc []byte, op int) error {
	root := tr.begin("verify", op, -1)
	defer tr.end(root)
	var (
		desc  *scenario.System
		built *scenario.Built
		err   error
	)
	tr.call("scenario.parse", op, root, func() { desc, err = runner.Prepare(doc, runner.Options{}) })
	if err != nil {
		return err
	}
	tr.call("scenario.hash", op, root, func() { _, err = desc.Hash() })
	if err != nil {
		return err
	}
	tr.call("scenario.build", op, root, func() { built, err = desc.Build() })
	if err != nil {
		return err
	}
	runStart := time.Now()
	tr.call("sim.run", op, root, func() { _, err = built.RunChecked() })
	l.simRun += msOf(time.Since(runStart))
	if err != nil {
		return err
	}
	sys := built.Sys
	l.acts += sys.K.Activations()
	l.deltas += sys.K.DeltaCount()
	l.events += float64(sys.K.Activations() + sys.K.DeltaCount())
	for _, cpu := range sys.Processors() {
		l.preempt += cpu.Preemptions()
	}
	l.switches += fingerprintOf(sys.Metrics.Snapshot()).ContextSwitches
	tr.call("trace.stats", op, root, func() { _ = sys.Rec.ComputeStats(0).String() + sys.Constraints.Report() })
	var perfetto, reg bytes.Buffer
	tr.call("trace.perfetto", op, root, func() {
		err = sys.Rec.WritePerfetto(&perfetto, trace.PerfettoOptions{Misses: sys.Constraints.PerfettoMisses()})
	})
	if err != nil {
		return err
	}
	l.perfettoBytes = append(l.perfettoBytes, float64(perfetto.Len()))
	tr.call("metrics.json", op, root, func() { err = sys.Metrics.WriteJSON(&reg) })
	return err
}

func (l *layerSplit) report(tr *tracer, out *outcome) {
	self := tr.selfByOp()
	layerValues(out, self)
	out.values["runner.self_ms"] = tr.pairedSelfMS(l.runMS, 0, runChildren)
	out.values["trace.perfetto_mb"] = median(l.perfettoBytes) / 1e6
	out.values["sim.activations"] = float64(l.acts)
	out.values["sim.delta_cycles"] = float64(l.deltas)
	out.values["rtos.context_switches"] = float64(l.switches)
	out.values["rtos.preemptions"] = float64(l.preempt)
	if l.events > 0 {
		out.values["sim.ns_per_event"] = l.simRun * 1e6 / l.events
	}
}
