package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// maxRequestBytes bounds a job submission body (scenarios are small; a sweep
// spec plus base scenario fits comfortably).
const maxRequestBytes = 4 << 20

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs              submit a job (scenario, sweep or explore);
//	                             simulate jobs without a body artifact list
//	                             negotiate it via ?artifacts=csv,vcd,... (an
//	                             empty value disables artifacts) or mapped
//	                             Accept media types
//	GET    /v1/jobs              list jobs in submission order
//	GET    /v1/jobs/{id}         job status (result summary when done)
//	GET    /v1/jobs/{id}/report  the human report, byte-identical to the CLI
//	GET    /v1/jobs/{id}/trace   the Perfetto trace artifact
//	GET    /v1/jobs/{id}/metrics the simulation metrics registry (JSON)
//	GET    /v1/jobs/{id}/results a sweep job's per-variant results (JSON)
//	GET    /v1/jobs/{id}/artifacts/{name}  any named simulate artifact
//	GET    /v1/jobs/{id}/stream  progress events as NDJSON (chunked)
//	POST   /v1/jobs/{id}/cancel  cancel (DELETE /v1/jobs/{id} is an alias)
//	GET    /metrics              daemon metrics in Prometheus text form
//	GET    /healthz              liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.jobBytes(func(j *Job, r *http.Request) ([]byte, string) {
		return j.report(), "text/plain; charset=utf-8"
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.jobBytes(func(j *Job, r *http.Request) ([]byte, string) {
		return j.artifact("perfetto"), "application/json"
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.jobBytes(func(j *Job, r *http.Request) ([]byte, string) {
		if data := j.exploreMetrics(); data != nil {
			return data, "application/json"
		}
		return j.artifact("metrics"), "application/json"
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.jobBytes(func(j *Job, r *http.Request) ([]byte, string) {
		return j.sweepResults(), "application/json"
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.jobBytes(func(j *Job, r *http.Request) ([]byte, string) {
		// Perfetto traces are JSON; metrics registries are JSON; keep it
		// simple — every artifact the runner produces today is JSON.
		return j.artifact(r.PathValue("name")), "application/json"
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxRequestBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "request over %d bytes", maxRequestBytes)
		return
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	negotiateArtifacts(r, &req)
	job, err := s.Submit(req)
	var qf *QueueFullError
	switch {
	case errors.As(err, &qf):
		s.writeQueueFull(w, qf)
		return
	case errors.Is(err, errNotJournaled):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJob(w, http.StatusAccepted, job)
}

// acceptArtifact maps Accept media types onto runner artifact names for
// submissions that negotiate artifacts by content type instead of listing
// them. Unmapped types (including */*) are simply ignored.
var acceptArtifact = map[string]string{
	"text/csv":                      "csv",
	"text/x-vcd":                    "vcd",
	"application/json":              "json",
	"image/svg+xml":                 "svg",
	"application/vnd.perfetto+json": "perfetto",
	"application/vnd.metrics+json":  "metrics",
	"application/openmetrics-text":  "prom",
}

// negotiateArtifacts resolves a simulate submission's artifact list when the
// request body leaves it unset. Precedence: an explicit body list always
// wins; then an ?artifacts= query (comma-separated names, an empty value
// opting out of artifacts entirely); then artifact names mapped from Accept
// media types; and finally the daemon default applied at validation. Unknown
// names fail job validation exactly like a bad body list.
func negotiateArtifacts(r *http.Request, req *Request) {
	if req.Options.Artifacts != nil {
		return
	}
	if req.Kind != "" && req.Kind != KindSimulate {
		return
	}
	if vals, ok := r.URL.Query()["artifacts"]; ok {
		list := []string{}
		for _, v := range vals {
			for _, name := range strings.Split(v, ",") {
				if name = strings.TrimSpace(name); name != "" {
					list = append(list, name)
				}
			}
		}
		req.Options.Artifacts = list
		return
	}
	var list []string
	seen := map[string]bool{}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 { // drop q-value parameters
			mt = strings.TrimSpace(mt[:i])
		}
		if name, ok := acceptArtifact[mt]; ok && !seen[name] {
			seen[name] = true
			list = append(list, name)
		}
	}
	if list != nil {
		req.Options.Artifacts = list
	}
}

// writeQueueFull renders the smart-backpressure 503: a Retry-After header
// derived from the shard's rolling service-time estimate (minimum 1s — the
// client should always back off a little) and a JSON body carrying the queue
// depth and the wait estimate in milliseconds so clients can pace themselves
// more precisely than whole seconds allow.
func (s *Server) writeQueueFull(w http.ResponseWriter, qf *QueueFullError) {
	retry := int(qf.EstimatedWait / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]any{
		"error":           qf.Error(),
		"shard":           qf.Shard,
		"queueDepth":      qf.Depth,
		"estimatedWaitMs": qf.EstimatedWait.Milliseconds(),
		"retryAfterSec":   retry,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	s.mu.Lock()
	defer s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(jobs)
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return nil
	}
	return job
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job := s.lookupJob(w, r); job != nil {
		s.writeJob(w, http.StatusOK, job)
	}
}

// writeJob marshals a job snapshot under the server lock (workers mutate
// jobs concurrently).
func (s *Server) writeJob(w http.ResponseWriter, code int, job *Job) {
	s.mu.Lock()
	data, err := json.MarshalIndent(job, "", "  ")
	s.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
	w.Write([]byte("\n"))
}

// jobBytes adapts a "bytes of a finished job" accessor to a handler. 409
// for jobs still in flight, 404 for artifacts the job did not produce.
func (s *Server) jobBytes(get func(*Job, *http.Request) ([]byte, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.lookupJob(w, r)
		if job == nil {
			return
		}
		s.mu.Lock()
		terminal := job.State.terminal()
		var data []byte
		var ctype string
		if terminal {
			data, ctype = get(job, r)
		}
		s.mu.Unlock()
		if !terminal {
			httpError(w, http.StatusConflict, "job %s is %s; retry when terminal", job.ID, job.State)
			return
		}
		if data == nil {
			httpError(w, http.StatusNotFound, "job %s has no such artifact", job.ID)
			return
		}
		w.Header().Set("Content-Type", ctype)
		w.Write(data)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if !s.Cancel(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	job, _ := s.Job(r.PathValue("id"))
	s.writeJob(w, http.StatusOK, job)
}

// handleStream serves the job's event log as NDJSON and keeps the response
// open, flushing new events as the job progresses, until it has written the
// terminal event or the client goes away. The log is append-only, so each
// pass writes exactly the events after the last one written: a slow reader
// falls behind but never loses an event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	next := 0
	for {
		s.mu.Lock()
		// Logged events are never rewritten, so the slice is safe to read
		// after unlocking while later appends grow the log.
		events := job.events[next:]
		done := job.State.terminal()
		if !done && job.changed == nil {
			job.changed = make(chan struct{})
		}
		changed := job.changed
		s.mu.Unlock()

		for _, ev := range events {
			enc.Encode(ev)
		}
		next += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(func(reg *metrics.Registry) error {
		return reg.WritePrometheus(w)
	})
}
