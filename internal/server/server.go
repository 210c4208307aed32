// Package server is the simulation-as-a-service core behind the rtossimd
// daemon: a durable in-memory job queue, a sharded worker pool (reusing
// internal/batch's pool), a content-hash LRU result cache, and an HTTP/JSON
// API with streaming progress. It is a thin shell around internal/runner —
// every job runs through the same pipeline the rtossim CLI uses, so the
// report and trace bytes a job serves are identical to the CLI's output for
// the same scenario and options.
//
// Jobs are routed to a worker shard by the scenario's canonical content hash
// (internal/scenario.Hash): resubmissions of a semantically identical
// scenario — any field order, any duration spelling — land on the same
// shard, and simulate jobs whose (hash, options) pair is cached complete
// without running a simulation at all.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Config parameterizes a Server. The zero value picks sensible defaults.
type Config struct {
	// Shards is the number of worker queues (default: GOMAXPROCS, capped at 8).
	Shards int
	// QueueDepth bounds each shard's queue; submissions beyond it are
	// rejected with 503 (default 256).
	QueueDepth int
	// CacheEntries bounds the result cache (default 128; 0 uses the
	// default, negative disables caching).
	CacheEntries int
	// Journal, when non-empty, names a directory holding the crash-safe job
	// journal: submissions, cancellations and terminal states are appended
	// (CRC-tagged NDJSON, fsynced) and replayed on the next start — finished
	// results restored, unfinished jobs re-enqueued. Empty disables
	// durability.
	Journal string
	// CompactEvery bounds how often the journal compaction trigger is
	// evaluated: after this many appended records the journal is rewritten
	// as a snapshot once terminal records dominate (default 256).
	CompactEvery int
	// Logf receives operational log lines (journal replay decisions,
	// append failures). Nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 128
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 256
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server owns the job table, the shard queues and the result cache. One
// mutex guards all of them plus the metrics registry (the registry is
// allocation-free but not itself thread-safe); the heavy work — running
// simulations — happens outside the lock.
type Server struct {
	cfg Config

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // job IDs in submission order
	seq   int
	cache *resultCache

	queues []chan *Job
	// waiting mirrors each shard queue's still-queued jobs in order; it
	// backs the queuePosition field in job status and stream events.
	waiting [][]*Job
	// busy marks shards currently executing a job (feeds the wait estimate).
	busy []bool
	est  *shardEstimator

	jnl       *journal
	terminal  int  // jobs in a terminal state (compaction trigger)
	appended  int  // journal records appended since the last compaction check
	replaying bool // suppresses compaction until the job table is rebuilt

	reg *metrics.Registry
	m   struct {
		submitted   *metrics.Counter
		completed   map[JobState]*metrics.Counter
		queued      *metrics.Gauge
		running     *metrics.Gauge
		shardDepth  []*metrics.Gauge
		workersBusy *metrics.Gauge
		workers     *metrics.Gauge
		cacheHits   *metrics.Counter
		cacheMiss   *metrics.Counter
		cacheSize   *metrics.Gauge
		cacheEvict  *metrics.Counter
		simulations map[JobKind]*metrics.Counter
		wallMS      *metrics.Histogram
	}

	ctx         context.Context
	cancel      context.CancelFunc
	workersDone chan struct{}
}

// New builds a Server, replays its journal when one is configured, and
// starts its worker pool. The only error source is the journal (open,
// replay, truncate); a journal-less server cannot fail.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		jobs:        make(map[string]*Job),
		cache:       newResultCache(cfg.CacheEntries),
		queues:      make([]chan *Job, cfg.Shards),
		waiting:     make([][]*Job, cfg.Shards),
		busy:        make([]bool, cfg.Shards),
		est:         newShardEstimator(cfg.Shards),
		reg:         metrics.NewRegistry(),
		workersDone: make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for i := range s.queues {
		s.queues[i] = make(chan *Job, cfg.QueueDepth)
	}

	// Create every metric up front: Registry lookups mutate its maps, so
	// after this point only the pre-built handles are touched (under s.mu).
	s.m.submitted = s.reg.Counter("rtossimd_jobs_submitted_total", "jobs accepted by the queue")
	s.m.completed = map[JobState]*metrics.Counter{}
	for _, st := range []JobState{StateDone, StateFailed, StateCanceled} {
		s.m.completed[st] = s.reg.Counter("rtossimd_jobs_completed_total",
			"jobs finished, by terminal state", metrics.L("state", string(st)))
	}
	s.m.queued = s.reg.Gauge("rtossimd_jobs_queued", "jobs waiting in shard queues")
	s.m.running = s.reg.Gauge("rtossimd_jobs_running", "jobs currently executing")
	s.m.shardDepth = make([]*metrics.Gauge, cfg.Shards)
	for i := range s.m.shardDepth {
		s.m.shardDepth[i] = s.reg.Gauge("rtossimd_queue_depth",
			"queued jobs per worker shard", metrics.L("shard", strconv.Itoa(i)))
	}
	s.m.workersBusy = s.reg.Gauge("rtossimd_workers_busy", "workers executing a job")
	s.m.workers = s.reg.Gauge("rtossimd_workers", "worker pool size")
	s.m.workers.Set(int64(cfg.Shards))
	s.m.cacheHits = s.reg.Counter("rtossimd_cache_hits_total", "simulate jobs served from the result cache")
	s.m.cacheMiss = s.reg.Counter("rtossimd_cache_misses_total", "simulate jobs that had to run")
	s.m.cacheSize = s.reg.Gauge("rtossimd_cache_entries", "results held in the cache")
	s.m.cacheEvict = s.reg.Counter("rtossimd_cache_evictions_total", "results evicted from the cache")
	s.m.simulations = map[JobKind]*metrics.Counter{}
	for _, k := range []JobKind{KindSimulate, KindSweep, KindExplore} {
		s.m.simulations[k] = s.reg.Counter("rtossimd_simulations_total",
			"simulation pipeline executions (cache hits run none; sweeps count per executed variant)",
			metrics.L("kind", string(k)))
	}
	s.m.wallMS = s.reg.Histogram("rtossimd_job_wall_ms", "job wall time in milliseconds",
		[]int64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000})

	// Replay the journal before any worker can observe the queues: finished
	// results come back into the job table and cache, unfinished jobs are
	// re-enqueued to run again.
	if cfg.Journal != "" {
		jnl, recs, err := openJournal(cfg.Journal, cfg.Logf)
		if err != nil {
			s.cancel()
			close(s.workersDone)
			return nil, err
		}
		s.jnl = jnl
		s.mu.Lock()
		s.replaying = true
		s.replayLocked(recs)
		s.replaying = false
		// Startup compaction: replay already separated the wheat; rewrite
		// whenever the file holds more than a snapshot would.
		if s.jnl.records > len(s.order)+s.terminal {
			s.compactLocked()
		}
		s.mu.Unlock()
	}

	// The worker pool is internal/batch's: one pool item per shard, each
	// item a shard loop that drains its queue until shutdown.
	go func() {
		defer close(s.workersDone)
		batch.ForEach(cfg.Shards, cfg.Shards, s.shardLoop)
	}()
	return s, nil
}

// Close stops the worker pool and cancels every job context. In-flight
// single simulations run to completion in their worker before the pool
// exits; sweeps stop at the next variant boundary.
func (s *Server) Close() {
	s.cancel()
	<-s.workersDone
	s.mu.Lock()
	s.jnl.close()
	s.jnl = nil
	s.mu.Unlock()
}

// buildJob validates a request and builds the (not yet registered) job:
// the job's one scenario parse, canonical hash, per-kind validation (a
// simulate job derives its description here), cache key and shard routing.
// Shared verbatim between Submit and journal replay so a replayed job
// revalidates exactly like a fresh one.
func (s *Server) buildJob(req Request) (*Job, error) {
	kind := req.Kind
	if kind == "" {
		kind = KindSimulate
	}
	if len(req.Scenario) == 0 {
		return nil, fmt.Errorf("request has no scenario document")
	}

	job := &Job{Kind: kind, State: StateQueued, Created: time.Now(), req: req}
	job.req.Kind = kind

	desc, err := scenario.Parse(req.Scenario)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if job.Hash, err = desc.Hash(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	job.desc = desc

	switch kind {
	case KindSimulate:
		// Default artifacts so the trace/metrics endpoints work; an explicit
		// empty list opts out. Normalize before building the cache key so
		// spelled-out defaults hit the same entry.
		if job.req.Options.Artifacts == nil {
			job.req.Options.Artifacts = []string{"perfetto", "metrics"}
		}
		if job.desc, err = job.req.Options.Derive(desc); err != nil {
			return nil, err
		}
		optJSON, err := json.Marshal(job.req.Options)
		if err != nil {
			return nil, err
		}
		job.cacheKey = job.Hash + "\x00" + string(optJSON)
	case KindSweep:
		if len(req.Sweep) == 0 {
			return nil, fmt.Errorf("sweep job has no sweep spec")
		}
		spec, err := batch.ParseSpec(req.Sweep)
		if err != nil {
			return nil, fmt.Errorf("sweep spec: %w", err)
		}
		if _, err := spec.Expand(); err != nil {
			return nil, fmt.Errorf("sweep spec: %w", err)
		}
		job.spec = spec
	case KindExplore:
		// The scenario parse above is the full validation; explore bounds
		// default inside the engine.
	default:
		return nil, fmt.Errorf("unknown job kind %q (want simulate, sweep or explore)", kind)
	}

	job.Shard = shardOf(job.Hash, s.cfg.Shards)
	job.ctx, job.cancel = context.WithCancel(s.ctx)
	return job, nil
}

// Submit validates a request, routes it to a shard by content hash, and
// returns the job. Cache hits complete synchronously. The returned error is
// a client error (bad request); queue overflow returns a *QueueFullError
// (matching ErrQueueFull) carrying the shard's depth and estimated wait.
func (s *Server) Submit(req Request) (*Job, error) {
	job, err := s.buildJob(req)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// Reserve the queue slot before registering or journaling anything: a
	// rejected submission must leave no trace.
	var hit any
	var ok bool
	if job.cacheKey != "" {
		hit, ok = s.cache.get(job.cacheKey)
	}
	if !ok {
		select {
		case s.queues[job.Shard] <- job:
		default:
			depth := len(s.waiting[job.Shard])
			ahead := depth
			if s.busy[job.Shard] {
				ahead++
			}
			return nil, &QueueFullError{
				Shard:         job.Shard,
				Depth:         depth,
				EstimatedWait: s.est.wait(job.Shard, ahead),
			}
		}
	}

	s.seq++
	job.ID = fmt.Sprintf("j%06d", s.seq)
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.m.submitted.Inc()
	s.journalLocked(&journalRecord{Op: "submit", ID: job.ID, Time: job.Created,
		Kind: job.Kind, Hash: job.Hash, Req: &job.req})

	// Cache check (simulate only): a hit completes the job immediately, on
	// the caller's goroutine, without entering a queue.
	if ok {
		res := hit.(*runner.Result)
		job.CacheHit = true
		job.Started = time.Now()
		job.Result = res
		s.m.cacheHits.Inc()
		s.finishLocked(job, StateDone, "served from cache")
		return job, nil
	}
	if job.cacheKey != "" {
		s.m.cacheMiss.Inc()
	}

	s.m.queued.Add(1)
	s.m.shardDepth[job.Shard].Add(1)
	pos := len(s.waiting[job.Shard])
	s.waiting[job.Shard] = append(s.waiting[job.Shard], job)
	job.QueuePosition = &pos
	s.pushEventLocked(job, Event{State: StateQueued, QueuePosition: &pos})
	return job, nil
}

// ErrQueueFull matches the error Submit returns when the job's shard queue
// is at capacity (use errors.Is; errors.As with *QueueFullError recovers
// the depth and wait estimate).
var ErrQueueFull = fmt.Errorf("shard queue is full")

// QueueFullError is the backpressure signal: which shard is saturated, how
// many jobs are queued on it, and — from the rolling per-shard service-time
// estimate — how long a retry is expected to wait for a slot.
type QueueFullError struct {
	Shard int
	Depth int
	// EstimatedWait is zero when the shard has no completed-job sample yet.
	EstimatedWait time.Duration
}

func (e *QueueFullError) Error() string {
	if e.EstimatedWait > 0 {
		return fmt.Sprintf("shard %d queue is full (%d queued, estimated wait %v)",
			e.Shard, e.Depth, e.EstimatedWait.Round(time.Millisecond))
	}
	return fmt.Sprintf("shard %d queue is full (%d queued)", e.Shard, e.Depth)
}

// Is makes errors.Is(err, ErrQueueFull) hold for the richer error.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// shardOf routes a canonical content hash to a shard: the hash is uniform,
// so its first 8 hex digits modulo the shard count balance the pool while
// keeping identical scenarios on one shard.
func shardOf(hash string, shards int) int {
	if len(hash) < 8 || shards <= 1 {
		return 0
	}
	v, err := strconv.ParseUint(hash[:8], 16, 64)
	if err != nil {
		return 0
	}
	return int(v % uint64(shards))
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: queued jobs complete as canceled without running,
// running sweeps stop at the next variant boundary, and a running single
// simulation finishes its run but the job still lands in state canceled.
// It reports whether the job exists.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	if j.State.terminal() {
		return true
	}
	j.cancel()
	if j.State == StateQueued {
		// The worker will skip it when dequeued; finish it now so pollers
		// and streams see the terminal state immediately.
		s.unqueueLocked(j)
		s.finishLocked(j, StateCanceled, "canceled while queued")
	} else {
		// Running: journal the request so a crash before the terminal
		// record replays this job as canceled instead of re-running it.
		s.journalLocked(&journalRecord{Op: "cancel", ID: j.ID, Time: time.Now()})
	}
	return true
}

// shardLoop is one worker: it drains its shard queue until shutdown.
func (s *Server) shardLoop(shard int) {
	for {
		select {
		case <-s.ctx.Done():
			return
		case job := <-s.queues[shard]:
			s.runJob(job)
		}
	}
}

// runJob executes one dequeued job through internal/runner.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	s.m.queued.Add(-1)
	s.m.shardDepth[job.Shard].Add(-1)
	if job.State.terminal() { // canceled while queued
		s.mu.Unlock()
		return
	}
	s.unqueueLocked(job)
	job.State = StateRunning
	job.Started = time.Now()
	s.busy[job.Shard] = true
	s.m.running.Add(1)
	s.m.workersBusy.Add(1)
	if job.Kind != KindSweep {
		// Sweeps count simulations per executed variant, in the variant-cache
		// lookup hook, so cached variants run (and count) nothing.
		s.m.simulations[job.Kind].Inc()
	}
	s.pushEventLocked(job, Event{State: StateRunning})
	progress := func(done, total int) {
		s.mu.Lock()
		s.pushEventLocked(job, Event{State: StateRunning, Done: done, Total: total})
		s.mu.Unlock()
	}
	s.mu.Unlock()

	var (
		result  *runner.Result
		sweep   *runner.SweepResult
		explore *runner.ExploreResult
		err     error
	)
	switch job.Kind {
	case KindSimulate:
		result, err = runner.RunPrepared(job.desc, job.req.Options, job.Hash[:12])
	case KindSweep:
		sweep, err = runner.SweepParsed(job.spec, job.desc, runner.SweepOptions{
			Workers:  job.spec.Workers,
			Progress: progress,
			Context:  job.ctx,
			Lookup:   s.sweepLookup(job),
			Store:    s.sweepStore(job),
		})
	case KindExplore:
		explore, err = runner.Explore(job.desc, job.req.Explore, job.Hash[:12])
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy[job.Shard] = false
	s.m.running.Add(-1)
	s.m.workersBusy.Add(-1)
	s.m.wallMS.Observe(time.Since(job.Started).Milliseconds())
	s.est.observe(job.Shard, time.Since(job.Started))
	switch {
	case err != nil:
		job.Error = err.Error()
		s.finishLocked(job, StateFailed, job.Error)
	case job.ctx.Err() != nil || (sweep != nil && sweep.Canceled):
		job.Result, job.sweep, job.explore = result, sweep, explore
		s.fillSummariesLocked(job)
		s.finishLocked(job, StateCanceled, "canceled")
	default:
		job.Result, job.sweep, job.explore = result, sweep, explore
		s.fillSummariesLocked(job)
		if job.cacheKey != "" && result != nil && result.SimError == "" {
			if s.cache.put(job.cacheKey, result) {
				s.m.cacheEvict.Inc()
			}
			s.m.cacheSize.Set(int64(s.cache.len()))
		}
		s.finishLocked(job, StateDone, "")
	}
}

func (s *Server) fillSummariesLocked(job *Job) {
	if job.sweep != nil {
		sum := job.sweep.Summary
		job.SweepSummary = &sum
	}
	if job.explore != nil {
		sum := job.explore.Summary
		job.ExploreSummary = &sum
		job.Violations = len(sum.Violations)
	}
}

// finishLocked moves a job to a terminal state, emits the final event,
// journals the outcome, and closes every stream subscription. Caller holds
// s.mu.
func (s *Server) finishLocked(job *Job, state JobState, msg string) {
	job.State = state
	job.desc = nil
	job.Finished = time.Now()
	job.QueuePosition = nil
	job.cancel()
	s.terminal++
	s.m.completed[state].Inc()
	s.pushEventLocked(job, Event{State: state, Message: msg})
	for _, ch := range job.subs {
		close(ch)
	}
	job.subs = nil
	rec := endRecord(job)
	s.journalLocked(&rec)
	s.maybeCompactLocked()
}

// journalLocked appends one record, logging (not failing) on error: a
// broken disk degrades durability, it must not take serving down with it.
// Caller holds s.mu.
func (s *Server) journalLocked(rec *journalRecord) {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.append(rec); err != nil {
		s.cfg.Logf("%v", err)
	}
	s.appended++
}

// endRecord renders a job's terminal state as its journal record.
func endRecord(job *Job) journalRecord {
	return journalRecord{Op: "end", ID: job.ID, Time: job.Finished,
		State: job.State, Started: job.Started, Error: job.Error,
		CacheHit: job.CacheHit, Out: job.outputs()}
}

// unqueueLocked removes a job from its shard's waiting list and renumbers
// the jobs behind it, emitting a position event for each. Caller holds s.mu.
func (s *Server) unqueueLocked(job *Job) {
	w := s.waiting[job.Shard]
	for i, q := range w {
		if q != job {
			continue
		}
		copy(w[i:], w[i+1:])
		w = w[:len(w)-1]
		s.waiting[job.Shard] = w
		for k := i; k < len(w); k++ {
			pos := k
			w[k].QueuePosition = &pos
			s.pushEventLocked(w[k], Event{State: StateQueued, QueuePosition: &pos})
		}
		break
	}
	job.QueuePosition = nil
}

// replayLocked rebuilds the job table from journal records: terminal jobs
// come back with their served bytes (done simulate results re-enter the
// cache), jobs with only a cancel request finish as canceled, and everything
// else is re-enqueued to run again. Invalid records — failed revalidation,
// hash mismatch — are logged and dropped. Caller holds s.mu; workers are not
// running yet.
func (s *Server) replayLocked(recs []journalRecord) {
	type slot struct {
		job      *Job
		end      *journalRecord
		canceled bool
	}
	slots := map[string]*slot{}
	var order []string
	for i := range recs {
		rec := &recs[i]
		switch rec.Op {
		case "submit":
			if rec.Req == nil || slots[rec.ID] != nil {
				continue
			}
			job, err := s.buildJob(*rec.Req)
			if err != nil {
				s.cfg.Logf("journal: dropping job %s: %v", rec.ID, err)
				continue
			}
			if job.Hash != rec.Hash {
				s.cfg.Logf("journal: dropping job %s: scenario hash mismatch (journaled %.12s, recomputed %.12s)",
					rec.ID, rec.Hash, job.Hash)
				continue
			}
			job.ID = rec.ID
			job.Created = rec.Time
			if n := idSeq(rec.ID); n > s.seq {
				s.seq = n
			}
			slots[rec.ID] = &slot{job: job}
			order = append(order, rec.ID)
		case "cancel":
			if sl := slots[rec.ID]; sl != nil {
				sl.canceled = true
			}
		case "end":
			if sl := slots[rec.ID]; sl != nil && sl.end == nil {
				sl.end = rec
			}
		}
	}

	requeued, restored := 0, 0
	for _, id := range order {
		sl := slots[id]
		job := sl.job
		s.jobs[id] = job
		s.order = append(s.order, id)
		switch {
		case sl.end != nil:
			end := sl.end
			job.State = end.State
			job.Started = end.Started
			job.Finished = end.Time
			job.Error = end.Error
			job.CacheHit = end.CacheHit
			job.desc = nil
			job.cancel()
			s.terminal++
			job.restoreOutputs(end.Out)
			if job.State == StateDone && !job.CacheHit && job.cacheKey != "" &&
				job.Result != nil && job.Result.SimError == "" && job.Result.Report != nil {
				s.cache.put(job.cacheKey, job.Result)
			}
			if job.CacheHit && job.cacheKey != "" && (job.Result == nil || job.Result.Report == nil) {
				// Cache-hit jobs journal only result metadata; relink the
				// payload from the original job's cached result when it is
				// still resident.
				if v, ok := s.cache.get(job.cacheKey); ok {
					job.Result = v.(*runner.Result)
				}
			}
			// A minimal event log so streams of restored jobs still end
			// with the terminal transition.
			job.events = []Event{
				{Seq: 0, Time: job.Created, State: StateQueued},
				{Seq: 1, Time: job.Finished, State: job.State, Message: "restored from journal"},
			}
			restored++
		case sl.canceled:
			// Cancel was requested but the daemon died before the terminal
			// record: honor the cancellation rather than re-running.
			s.finishLocked(job, StateCanceled, "canceled before shutdown")
		default:
			select {
			case s.queues[job.Shard] <- job:
				s.m.queued.Add(1)
				s.m.shardDepth[job.Shard].Add(1)
				pos := len(s.waiting[job.Shard])
				s.waiting[job.Shard] = append(s.waiting[job.Shard], job)
				job.QueuePosition = &pos
				s.pushEventLocked(job, Event{State: StateQueued, QueuePosition: &pos})
				requeued++
			default:
				s.finishLocked(job, StateFailed, "recovered job exceeds queue capacity")
			}
		}
	}
	s.m.cacheSize.Set(int64(s.cache.len()))
	if len(order) > 0 {
		s.cfg.Logf("journal: replayed %d job(s): %d finished, %d re-enqueued", len(order), restored, requeued)
	}
}

// idSeq parses the numeric suffix of a job ID ("j000042" -> 42).
func idSeq(id string) int {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0
	}
	return n
}

// maybeCompactLocked rewrites the journal as a snapshot once terminal
// records dominate live jobs and the file holds more records than the
// snapshot would — i.e. once append history (cancel records, superseded
// restarts, rejected records) is just dead weight. Caller holds s.mu.
func (s *Server) maybeCompactLocked() {
	if s.jnl == nil || s.replaying || s.appended < s.cfg.CompactEvery {
		return
	}
	s.appended = 0
	live := len(s.order) - s.terminal
	if s.terminal < live || s.jnl.records <= len(s.order)+s.terminal {
		return
	}
	s.compactLocked()
}

// compactLocked rewrites the journal from the in-memory job table: one
// submit record per job plus one terminal record for finished ones. Caller
// holds s.mu.
func (s *Server) compactLocked() {
	if s.jnl == nil {
		return
	}
	recs := make([]journalRecord, 0, len(s.order)+s.terminal)
	for _, id := range s.order {
		job := s.jobs[id]
		recs = append(recs, journalRecord{Op: "submit", ID: job.ID, Time: job.Created,
			Kind: job.Kind, Hash: job.Hash, Req: &job.req})
		if job.State.terminal() {
			recs = append(recs, endRecord(job))
		}
	}
	before := s.jnl.records
	if err := s.jnl.rewrite(recs); err != nil {
		s.cfg.Logf("%v", err)
		return
	}
	s.cfg.Logf("journal: compacted %d record(s) to %d", before, len(recs))
}

// CompactJournal forces a compaction pass; a no-op without a journal.
func (s *Server) CompactJournal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appended = 0
	s.compactLocked()
}

// pushEventLocked appends an event to the job log and fans it out to
// subscribers. Caller holds s.mu. A slow stream reader loses intermediate
// progress events rather than blocking the worker.
func (s *Server) pushEventLocked(job *Job, ev Event) {
	ev.Seq = len(job.events)
	ev.Time = time.Now()
	job.events = append(job.events, ev)
	for _, ch := range job.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers a stream reader: it returns the events so far and a
// channel for subsequent ones (nil when the job is already terminal).
func (s *Server) subscribe(job *Job) ([]Event, chan Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	past := append([]Event(nil), job.events...)
	if job.State.terminal() {
		return past, nil
	}
	ch := make(chan Event, 64)
	job.subs = append(job.subs, ch)
	return past, ch
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Metrics renders the registry under the server lock (the registry itself
// is not thread-safe).
func (s *Server) writeMetrics(write func(*metrics.Registry) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return write(s.reg)
}
