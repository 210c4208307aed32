package server

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/batch"
	"repro/internal/explore"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// JobKind names what a job runs: one simulation, a parameter sweep, or a
// schedule-space exploration.
type JobKind string

const (
	KindSimulate JobKind = "simulate"
	KindSweep    JobKind = "sweep"
	KindExplore  JobKind = "explore"
)

// JobState is the lifecycle of a job. Queued and running are transient;
// done, failed and canceled are terminal.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Terminal reports whether the state is final (done, failed or canceled);
// exported for API clients deciding when to stop polling or streaming.
func (s JobState) Terminal() bool { return s.terminal() }

// Request is the POST /v1/jobs payload. Scenario carries the scenario
// document verbatim — the daemon never touches the filesystem, so a sweep's
// base scenario is embedded here rather than named by path as in the CLI's
// sweep spec (whose "scenario" field is therefore ignored).
type Request struct {
	// Kind selects the pipeline; empty means simulate.
	Kind JobKind `json:"kind,omitempty"`
	// Scenario is the scenario JSON document (for sweeps, the base scenario).
	Scenario json.RawMessage `json:"scenario"`
	// Options parameterizes a simulate job. When its artifact list is absent
	// the daemon requests ["perfetto", "metrics"] so the trace and metrics
	// endpoints work out of the box; pass an explicit empty list to disable.
	Options runner.Options `json:"options,omitempty"`
	// Sweep is the sweep spec for kind "sweep" (axes, seeds, workers).
	Sweep json.RawMessage `json:"sweep,omitempty"`
	// Explore parameterizes an explore job.
	Explore runner.ExploreOptions `json:"explore,omitempty"`
}

// Event is one entry of a job's progress log, streamed as NDJSON by the
// stream endpoint: a state transition, a queue-position change, or a
// progress tick for sweeps.
type Event struct {
	Seq   int       `json:"seq"`
	Time  time.Time `json:"time"`
	State JobState  `json:"state"`
	// Message explains failures and cache hits.
	Message string `json:"message,omitempty"`
	// QueuePosition is the number of jobs ahead on the shard queue while
	// queued (0 = next to run); emitted again whenever it improves.
	QueuePosition *int `json:"queuePosition,omitempty"`
	// Done/Total report sweep progress at variant granularity.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// Job is one queued unit of work and its outcome. All fields are guarded by
// the server mutex; results are written exactly once, on completion.
type Job struct {
	ID    string   `json:"id"`
	Kind  JobKind  `json:"kind"`
	State JobState `json:"state"`
	// Hash is the scenario's canonical content hash; jobs for semantically
	// identical scenarios share it regardless of JSON spelling.
	Hash string `json:"hash"`
	// Shard is the worker queue the hash routed this job to.
	Shard int `json:"shard"`
	// CacheHit reports that the result was served from the content-hash
	// cache without running a simulation.
	CacheHit bool      `json:"cacheHit"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// QueuePosition is the number of jobs ahead on the shard queue while
	// the job is queued (0 = next to run); absent otherwise.
	QueuePosition *int `json:"queuePosition,omitempty"`
	// Error is the load/validate/build-class failure of a failed job.
	Error string `json:"error,omitempty"`

	// The status view of the job's output form: Result for simulate jobs,
	// SweepSummary for sweeps, ExploreSummary and Violations for
	// explorations. Set once, with out, when the job turns terminal.
	Result         *runner.Result   `json:"result,omitempty"`
	SweepSummary   *batch.Summary   `json:"sweepSummary,omitempty"`
	ExploreSummary *explore.Summary `json:"exploreSummary,omitempty"`
	// Violations counts an explore job's invariant violations.
	Violations int `json:"violations,omitempty"`

	// out is the terminal job's servable bytes, in the form the journal
	// stores: rendered once when a live job finishes, or decoded from the
	// journal when a job is restored. Every byte endpoint reads only this.
	out      *storedOutputs
	req      Request
	desc     *scenario.System // what the job runs; nil once terminal
	spec     *batch.Spec
	cacheKey string

	// events is the job's append-only progress log; changed, when a stream
	// reader is waiting, is closed (and cleared) by the next append.
	events  []Event
	changed chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
}

// setOutputs installs a terminal job's output form and the status fields
// derived from it.
func (j *Job) setOutputs(out *storedOutputs) {
	j.out = out
	if out == nil {
		return
	}
	if out.Result != nil {
		j.Result = &out.Result.Meta
	}
	j.SweepSummary = out.SweepSummary
	if j.ExploreSummary = out.ExploreSummary; j.ExploreSummary != nil {
		j.Violations = len(j.ExploreSummary.Violations)
	}
}

// report returns the job's human report bytes, nil when not available.
func (j *Job) report() []byte {
	switch {
	case j.out == nil:
		return nil
	case j.out.Result != nil:
		return j.out.Result.Report
	case j.out.ExploreReport != nil:
		return j.out.ExploreReport
	}
	return j.out.SweepReport
}

// artifact returns one named artifact of a simulate job.
func (j *Job) artifact(name string) []byte {
	if j.out == nil || j.out.Result == nil {
		return nil
	}
	return j.out.Result.Artifacts[name]
}

// sweepResults returns a sweep job's per-variant rows as JSON.
func (j *Job) sweepResults() []byte {
	if j.out == nil {
		return nil
	}
	return j.out.SweepResults
}

// exploreMetrics returns an explore job's metrics registry JSON.
func (j *Job) exploreMetrics() []byte {
	if j.out == nil {
		return nil
	}
	return j.out.ExploreMetrics
}
