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

	// Exactly one of the three results is set on a done job, matching Kind.
	Result         *runner.Result   `json:"result,omitempty"`
	SweepSummary   *batch.Summary   `json:"sweepSummary,omitempty"`
	ExploreSummary *explore.Summary `json:"exploreSummary,omitempty"`
	// Violations counts an explore job's invariant violations.
	Violations int `json:"violations,omitempty"`

	sweep    *runner.SweepResult
	explore  *runner.ExploreResult
	restored *storedOutputs // journal-replayed outputs of a prior life
	req      Request
	desc     *scenario.System // what the job runs; nil once terminal
	spec     *batch.Spec
	cacheKey string

	events []Event
	subs   []chan Event

	ctx    context.Context
	cancel context.CancelFunc
}

// report returns the job's human report bytes, nil when not (yet) available.
func (j *Job) report() []byte {
	switch {
	case j.Result != nil && j.Result.Report != nil:
		return j.Result.Report
	case j.explore != nil:
		return j.explore.Report
	case j.sweep != nil:
		return j.sweep.Report
	case j.restored != nil && j.restored.ExploreReport != nil:
		return j.restored.ExploreReport
	case j.restored != nil && j.restored.SweepReport != nil:
		return j.restored.SweepReport
	}
	return nil
}

// artifact returns one named artifact of a done job.
func (j *Job) artifact(name string) []byte {
	if j.Result == nil {
		return nil
	}
	return j.Result.Artifacts[name]
}

// sweepResults returns a sweep job's per-variant rows as JSON, falling back
// to the journaled rendering for jobs restored from a prior life.
func (j *Job) sweepResults() []byte {
	if j.sweep != nil {
		data, err := j.sweep.ResultsJSON()
		if err != nil {
			return nil
		}
		return data
	}
	if j.restored != nil {
		return j.restored.SweepResults
	}
	return nil
}

// exploreMetrics returns an explore job's metrics registry JSON.
func (j *Job) exploreMetrics() []byte {
	if j.explore != nil {
		return j.explore.MetricsJSON
	}
	if j.restored != nil {
		return j.restored.ExploreMetrics
	}
	return nil
}

// outputs renders the job's servable bytes for its journal terminal record.
// Cache-hit jobs store result metadata only — the payload lives in the
// original job's record and is relinked through the cache on replay.
func (j *Job) outputs() *storedOutputs {
	if j.restored != nil {
		return j.restored
	}
	out := &storedOutputs{}
	switch {
	case j.CacheHit && j.Result != nil:
		out.Result = &storedResult{Meta: *j.Result}
		out.Result.Meta.Report = nil
		out.Result.Meta.Artifacts = nil
	case j.Result != nil:
		out.Result = storeResult(j.Result)
	case j.sweep != nil:
		sum := j.sweep.Summary
		out.SweepSummary = &sum
		out.SweepReport = j.sweep.Report
		out.SweepResults = j.sweepResults()
	case j.explore != nil:
		sum := j.explore.Summary
		out.ExploreSummary = &sum
		out.ExploreReport = j.explore.Report
		out.ExploreMetrics = j.explore.MetricsJSON
	default:
		return nil
	}
	return out
}

// restoreOutputs rehydrates a replayed terminal job from its journal record.
func (j *Job) restoreOutputs(out *storedOutputs) {
	j.restored = out
	if out == nil {
		return
	}
	if out.Result != nil {
		j.Result = out.Result.toResult()
	}
	if out.SweepSummary != nil {
		sum := *out.SweepSummary
		j.SweepSummary = &sum
	}
	if out.ExploreSummary != nil {
		sum := *out.ExploreSummary
		j.ExploreSummary = &sum
		j.Violations = len(sum.Violations)
	}
}
