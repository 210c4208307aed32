package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func readScenario(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postJob(t *testing.T, ts *httptest.Server, req any) Job {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, out)
	}
	var job Job
	if err := json.Unmarshal(out, &job); err != nil {
		t.Fatalf("submit response: %v: %s", err, out)
	}
	return job
}

func getJob(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job := getJob(t, ts, id)
		if job.State.terminal() {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

func getBytes(t *testing.T, ts *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return data, resp.StatusCode
}

// promValue scrapes one sample from the /metrics endpoint, summed over the
// matching series (Prometheus text form, e.g. `rtossimd_simulations_total`).
func promValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	data, code := getBytes(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var sum float64
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // longer metric name with this prefix
		}
		fields := strings.Fields(line)
		var v float64
		fmt.Sscanf(fields[len(fields)-1], "%g", &v)
		sum += v
	}
	return sum
}

func TestSimulateJobMatchesCLIBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := readScenario(t, "figure6.json")

	job := postJob(t, ts, Request{Scenario: data})
	if job.Hash == "" || job.Kind != KindSimulate {
		t.Fatalf("submit response incomplete: %+v", job)
	}
	done := waitTerminal(t, ts, job.ID)
	if done.State != StateDone {
		t.Fatalf("job state = %s (error %q)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Name != "figure6" {
		t.Fatalf("result summary missing: %+v", done.Result)
	}

	// The daemon's report and trace must be byte-identical to what the CLI
	// produces for the same scenario: both are composed once, in runner.
	want, err := runner.Run(data, runner.Options{Artifacts: []string{"perfetto", "metrics"}}, "x")
	if err != nil {
		t.Fatal(err)
	}
	report, code := getBytes(t, ts, "/v1/jobs/"+job.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("/report: status %d", code)
	}
	if !bytes.Equal(report, want.Report) {
		t.Errorf("daemon report differs from CLI report:\n--- daemon\n%s\n--- cli\n%s", report, want.Report)
	}
	trace, code := getBytes(t, ts, "/v1/jobs/"+job.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace: status %d", code)
	}
	if !bytes.Equal(trace, want.Artifacts["perfetto"]) {
		t.Error("daemon trace differs from CLI perfetto artifact")
	}
	met, code := getBytes(t, ts, "/v1/jobs/"+job.ID+"/metrics")
	if code != http.StatusOK || !json.Valid(met) {
		t.Fatalf("/metrics artifact: status %d, valid JSON %v", code, json.Valid(met))
	}
}

func TestCacheHitRunsNoSimulation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Two spellings of one scenario: field order scrambled, durations
	// respelled. The canonical hash must unify them.
	a := []byte(`{
		"name": "tiny", "horizon": "1ms",
		"processors": [{"name": "cpu0"}],
		"tasks": [{"name": "t", "processor": "cpu0", "priority": 2, "period": "100us",
		           "body": [{"op": "execute", "for": "10us"}]}]
	}`)
	b := []byte(`{
		"tasks": [{"body": [{"for": "10000ns", "op": "execute"}],
		           "period": "0.1ms", "priority": 2, "processor": "cpu0", "name": "t"}],
		"processors": [{"name": "cpu0"}],
		"horizon": "1000us", "name": "tiny"
	}`)

	first := waitTerminal(t, ts, postJob(t, ts, Request{Scenario: a}).ID)
	if first.State != StateDone || first.CacheHit {
		t.Fatalf("first job: state %s, cacheHit %v", first.State, first.CacheHit)
	}
	sims := promValue(t, ts, "rtossimd_simulations_total")
	if sims != 1 {
		t.Fatalf("simulations after first job = %v, want 1", sims)
	}

	second := postJob(t, ts, Request{Scenario: b})
	if second.Hash != first.Hash {
		t.Fatalf("respelled scenario hashed differently: %s vs %s", second.Hash, first.Hash)
	}
	if !second.CacheHit || second.State != StateDone {
		t.Fatalf("second job not served from cache: %+v", second)
	}
	if got := promValue(t, ts, "rtossimd_simulations_total"); got != sims {
		t.Errorf("cache hit ran a simulation: counter %v -> %v", sims, got)
	}
	if hits := promValue(t, ts, "rtossimd_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}

	// Both jobs serve identical bytes.
	r1, _ := getBytes(t, ts, "/v1/jobs/"+first.ID+"/report")
	r2, _ := getBytes(t, ts, "/v1/jobs/"+second.ID+"/report")
	if !bytes.Equal(r1, r2) {
		t.Error("cached report differs from original")
	}

	// Different options miss the cache.
	third := postJob(t, ts, Request{Scenario: a, Options: runner.Options{Timeline: true}})
	if third.CacheHit {
		t.Error("job with different options hit the cache")
	}
	waitTerminal(t, ts, third.ID)
}

func TestSweepJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := readScenario(t, "figure6.json")
	job := postJob(t, ts, Request{
		Kind:     KindSweep,
		Scenario: base,
		Sweep:    json.RawMessage(`{"engines": ["procedural", "threaded"], "speeds": [1, 2]}`),
	})
	done := waitTerminal(t, ts, job.ID)
	if done.State != StateDone {
		t.Fatalf("sweep state = %s (error %q)", done.State, done.Error)
	}
	if done.SweepSummary == nil || done.SweepSummary.Runs != 4 {
		t.Fatalf("sweep summary = %+v", done.SweepSummary)
	}
	report, code := getBytes(t, ts, "/v1/jobs/"+job.ID+"/report")
	if code != http.StatusOK || !strings.Contains(string(report), "run(s)") {
		t.Errorf("sweep report: status %d:\n%s", code, report)
	}
	results, code := getBytes(t, ts, "/v1/jobs/"+job.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("/results: status %d", code)
	}
	var rows []map[string]any
	if err := json.Unmarshal(results, &rows); err != nil || len(rows) != 4 {
		t.Errorf("sweep results: %v, %d rows", err, len(rows))
	}
}

// postJobAt submits a request to a specific path (query parameters allowed)
// with optional headers, returning the accepted job.
func postJobAt(t *testing.T, ts *httptest.Server, path string, req any, hdr map[string]string) Job {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d: %s", path, resp.StatusCode, out)
	}
	var job Job
	if err := json.Unmarshal(out, &job); err != nil {
		t.Fatalf("submit response: %v: %s", err, out)
	}
	return job
}

// artifactNames fetches a finished job and lists which artifacts it produced.
func artifactNames(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	job := waitTerminal(t, ts, id)
	if job.State != StateDone {
		t.Fatalf("job %s: state %s (%s)", id, job.State, job.Error)
	}
	if job.Result == nil {
		t.Fatalf("job %s has no result", id)
	}
	var names []string
	for _, name := range runner.KnownArtifacts {
		if _, code := getBytes(t, ts, "/v1/jobs/"+id+"/artifacts/"+name); code == http.StatusOK {
			names = append(names, name)
		}
	}
	return names
}

// Artifact negotiation on submission: the ?artifacts= query and the Accept
// header choose a simulate job's artifact set when the body does not, with
// body > query > Accept > default precedence.
func TestSubmitArtifactNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := readScenario(t, "figure6.json")

	// Query list: exactly the named artifacts are produced.
	job := postJobAt(t, ts, "/v1/jobs?artifacts=csv,vcd", Request{Scenario: data}, nil)
	if got := artifactNames(t, ts, job.ID); !reflect.DeepEqual(got, []string{"csv", "vcd"}) {
		t.Errorf("query negotiation produced %v, want [csv vcd]", got)
	}

	// Empty query value: opts out of artifacts entirely.
	job = postJobAt(t, ts, "/v1/jobs?artifacts=", Request{Scenario: data}, nil)
	if got := artifactNames(t, ts, job.ID); got != nil {
		t.Errorf("empty artifacts query still produced %v", got)
	}

	// Accept media types map to artifact names (q-values ignored).
	job = postJobAt(t, ts, "/v1/jobs", Request{Scenario: data},
		map[string]string{"Accept": "text/csv;q=0.9, image/svg+xml"})
	if got := artifactNames(t, ts, job.ID); !reflect.DeepEqual(got, []string{"csv", "svg"}) {
		t.Errorf("accept negotiation produced %v, want [csv svg]", got)
	}

	// A body list wins over both query and header.
	job = postJobAt(t, ts, "/v1/jobs?artifacts=csv", Request{Scenario: data,
		Options: runner.Options{Artifacts: []string{"json"}}},
		map[string]string{"Accept": "image/svg+xml"})
	if got := artifactNames(t, ts, job.ID); !reflect.DeepEqual(got, []string{"json"}) {
		t.Errorf("body list did not win: %v", got)
	}

	// An unmapped Accept header falls back to the daemon default.
	job = postJobAt(t, ts, "/v1/jobs", Request{Scenario: data},
		map[string]string{"Accept": "*/*"})
	if got := artifactNames(t, ts, job.ID); !reflect.DeepEqual(got, []string{"perfetto", "metrics"}) {
		t.Errorf("default negotiation produced %v, want [perfetto metrics]", got)
	}

	// Unknown names in the query fail validation like a bad body list.
	body, _ := json.Marshal(Request{Scenario: data})
	resp, err := http.Post(ts.URL+"/v1/jobs?artifacts=pdf", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown artifact name: status %d, want 400", resp.StatusCode)
	}
}

// Sweep jobs cache per variant: resubmitting a sweep runs zero simulations
// and serves identical results, and a sweep sharing only some variants with
// an earlier one simulates just the new ones. rtossimd_simulations_total
// counts executed variants, so it pins all of this.
func TestSweepVariantCacheSkipsSimulations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := readScenario(t, "figure6.json")
	req := Request{
		Kind:     KindSweep,
		Scenario: base,
		Sweep:    json.RawMessage(`{"engines": ["procedural", "threaded"], "speeds": [1, 2]}`),
	}

	first := waitTerminal(t, ts, postJob(t, ts, req).ID)
	if first.State != StateDone || first.SweepSummary == nil || first.SweepSummary.Runs != 4 {
		t.Fatalf("first sweep: state %s, summary %+v", first.State, first.SweepSummary)
	}
	sims := promValue(t, ts, "rtossimd_simulations_total")
	if sims != 4 {
		t.Fatalf("simulations after first sweep = %v, want 4 (one per variant)", sims)
	}

	second := waitTerminal(t, ts, postJob(t, ts, req).ID)
	if second.State != StateDone || second.SweepSummary == nil || second.SweepSummary.Runs != 4 {
		t.Fatalf("second sweep: state %s, summary %+v", second.State, second.SweepSummary)
	}
	if got := promValue(t, ts, "rtossimd_simulations_total"); got != sims {
		t.Errorf("repeated sweep re-simulated variants: counter %v -> %v", sims, got)
	}
	if hits := promValue(t, ts, "rtossimd_cache_hits_total"); hits != 4 {
		t.Errorf("cache hits = %v, want 4", hits)
	}
	r1, _ := getBytes(t, ts, "/v1/jobs/"+first.ID+"/results")
	r2, _ := getBytes(t, ts, "/v1/jobs/"+second.ID+"/results")
	if !bytes.Equal(r1, r2) {
		t.Errorf("cached sweep results differ from original:\n--- first\n%s\n--- second\n%s", r1, r2)
	}

	// Overlapping sweep: speeds {1,3} shares the speed-1 variants with the
	// first sweep, so only the speed-3 pair simulates.
	third := waitTerminal(t, ts, postJob(t, ts, Request{
		Kind:     KindSweep,
		Scenario: base,
		Sweep:    json.RawMessage(`{"engines": ["procedural", "threaded"], "speeds": [1, 3]}`),
	}).ID)
	if third.State != StateDone || third.SweepSummary == nil || third.SweepSummary.Runs != 4 {
		t.Fatalf("third sweep: state %s, summary %+v", third.State, third.SweepSummary)
	}
	if got := promValue(t, ts, "rtossimd_simulations_total"); got != sims+2 {
		t.Errorf("overlapping sweep simulated %v new variants, want 2", got-sims)
	}

	// A different spec horizon is a different simulation: nothing may hit.
	fourth := waitTerminal(t, ts, postJob(t, ts, Request{
		Kind:     KindSweep,
		Scenario: base,
		Sweep:    json.RawMessage(`{"engines": ["procedural"], "speeds": [1], "horizon": "40ms"}`),
	}).ID)
	if fourth.State != StateDone {
		t.Fatalf("horizon sweep: state %s (%s)", fourth.State, fourth.Error)
	}
	if got := promValue(t, ts, "rtossimd_simulations_total"); got != sims+3 {
		t.Errorf("horizon-overridden variant should miss the cache: counter %v, want %v", got, sims+3)
	}
}

func TestExploreJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	job := postJob(t, ts, Request{
		Kind:     KindExplore,
		Scenario: readScenario(t, "faults.json"),
		Explore:  runner.ExploreOptions{Runs: 8, Workers: 2},
	})
	done := waitTerminal(t, ts, job.ID)
	if done.State != StateDone {
		t.Fatalf("explore state = %s (error %q)", done.State, done.Error)
	}
	report, code := getBytes(t, ts, "/v1/jobs/"+job.ID+"/report")
	if code != http.StatusOK || !strings.HasPrefix(string(report), "scenario ") {
		t.Errorf("explore report: status %d:\n%s", code, report)
	}
	met, code := getBytes(t, ts, "/v1/jobs/"+job.ID+"/metrics")
	if code != http.StatusOK || !json.Valid(met) {
		t.Errorf("explore metrics: status %d", code)
	}
}

// slowSweepRequest builds a sweep with enough variants to stay in flight
// while the test cancels or queues behind it.
func slowSweepRequest(t *testing.T) Request {
	// A dense scenario (10k release cycles per variant) swept over 32 seeds
	// on one worker: long enough to observe queued and running states.
	scenario := json.RawMessage(`{
		"name": "slow", "horizon": "200ms",
		"processors": [{"name": "cpu0"}],
		"tasks": [{"name": "t", "processor": "cpu0", "priority": 2, "period": "20us",
		           "body": [{"op": "execute", "for": "5us"}]}]
	}`)
	return Request{
		Kind:     KindSweep,
		Scenario: scenario,
		Sweep:    json.RawMessage(`{"workers": 1, "seeds": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32]}`),
	}
}

func TestCancelRunningSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	job := postJob(t, ts, slowSweepRequest(t))

	// Wait for the sweep to start, then cancel mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, job.ID).State == StateQueued && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/"+job.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := waitTerminal(t, ts, job.ID)
	if done.State != StateCanceled {
		t.Fatalf("state after cancel = %s", done.State)
	}
	if done.SweepSummary == nil || done.SweepSummary.Runs != 32 {
		t.Errorf("canceled sweep kept no per-variant accounting: %+v", done.SweepSummary)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	blocker := postJob(t, ts, slowSweepRequest(t))
	queued := postJob(t, ts, Request{Scenario: readScenario(t, "figure6.json")})

	if !s.Cancel(queued.ID) {
		t.Fatal("cancel reported unknown job")
	}
	got := getJob(t, ts, queued.ID)
	if got.State != StateCanceled {
		t.Fatalf("queued job state after cancel = %s", got.State)
	}
	if !got.Started.IsZero() {
		t.Error("canceled queued job reports a start time")
	}
	s.Cancel(blocker.ID)
	waitTerminal(t, ts, blocker.ID)
}

func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 1})
	blocker := postJob(t, ts, slowSweepRequest(t))
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, blocker.ID).State == StateQueued && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	postJob(t, ts, slowSweepRequest(t)) // fills the depth-1 queue

	body, _ := json.Marshal(slowSweepRequest(t))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d, want 503", resp.StatusCode)
	}
}

func TestStreamEndsWithTerminalEvent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	job := postJob(t, ts, Request{
		Kind:     KindSweep,
		Scenario: readScenario(t, "figure6.json"),
		Sweep:    json.RawMessage(`{"engines": ["procedural", "threaded"]}`),
	})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 {
		t.Fatalf("stream produced %d events, want at least queued+terminal", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Errorf("event seq not increasing: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}
	last := events[len(events)-1]
	if !last.State.terminal() {
		t.Errorf("stream ended on non-terminal event %+v", last)
	}
	var progress int
	for _, ev := range events {
		if ev.Total > 0 {
			progress++
		}
	}
	if progress == 0 {
		t.Error("sweep stream carried no progress events")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{"); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d", code)
	}
	if code := post(`{}`); code != http.StatusBadRequest {
		t.Errorf("missing scenario: %d", code)
	}
	if code := post(`{"kind": "teleport", "scenario": {"processors": [{"name": "c"}]}}`); code != http.StatusBadRequest {
		t.Errorf("unknown kind: %d", code)
	}
	if code := post(`{"scenario": {"bogus": true}}`); code != http.StatusBadRequest {
		t.Errorf("invalid scenario: %d", code)
	}
	if code := post(`{"kind": "sweep", "scenario": {"processors": [{"name": "c"}]}}`); code != http.StatusBadRequest {
		t.Errorf("sweep without spec: %d", code)
	}
	// The timeline width sizes the renderer's per-row buffers, so an
	// out-of-range width is refused at submission.
	for _, w := range []int{runner.MaxTimelineWidth + 1, -5} {
		body := fmt.Sprintf(`{"scenario": {"processors": [{"name": "c"}], "tasks": [{"name": "t", "processor": "c", "body": [{"op": "execute", "for": "1us"}]}]}, "options": {"timeline": true, "width": %d}}`, w)
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("timeline width %d: %d", w, code)
		}
	}
	if _, code := getBytes(t, ts, "/v1/jobs/j999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d", code)
	}
	if _, code := getBytes(t, ts, "/v1/jobs/j999999/report"); code != http.StatusNotFound {
		t.Errorf("unknown job report: %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/j999999/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job cancel: %d", resp.StatusCode)
	}
	if _, code := getBytes(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
}

func TestJobsListAndQueueMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		job := postJob(t, ts, Request{Scenario: readScenario(t, "figure6.json")})
		waitTerminal(t, ts, job.ID)
	}
	data, code := getBytes(t, ts, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("/v1/jobs: status %d", code)
	}
	var jobs []Job
	if err := json.Unmarshal(data, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ID <= jobs[i-1].ID {
			t.Errorf("list not in submission order: %s then %s", jobs[i-1].ID, jobs[i].ID)
		}
	}
	if v := promValue(t, ts, "rtossimd_jobs_submitted_total"); v != 3 {
		t.Errorf("submitted = %v, want 3", v)
	}
	if v := promValue(t, ts, "rtossimd_jobs_queued"); v != 0 {
		t.Errorf("queued gauge = %v, want 0 after drain", v)
	}
	if v := promValue(t, ts, "rtossimd_workers"); v == 0 {
		t.Error("workers gauge not exported")
	}
}

func TestShardOf(t *testing.T) {
	if shardOf("00000007deadbeef", 4) != 3 {
		t.Errorf("shardOf miscomputed: %d", shardOf("00000007deadbeef", 4))
	}
	if shardOf("zz", 4) != 0 || shardOf("abc", 4) != 0 || shardOf("ffffffff", 1) != 0 {
		t.Error("degenerate hashes must land on shard 0")
	}
	// Same hash, same shard — the routing invariant behind cache locality.
	for i := 0; i < 8; i++ {
		if shardOf("cafebabe12345678", 8) != shardOf("cafebabe12345678", 8) {
			t.Fatal("shardOf not deterministic")
		}
	}
}

// A job canceled while queued leaves the queue at once: its slot serves the
// next submission and the queued gauge drops back to zero.
func TestCanceledQueuedJobFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 1})
	blocker := postJob(t, ts, slowSweepRequest(t))
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, blocker.ID).State == StateQueued && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	data := readScenario(t, "figure6.json")
	queued := postJob(t, ts, Request{Scenario: data})
	if !s.Cancel(queued.ID) {
		t.Fatal("cancel reported unknown job")
	}
	if v := promValue(t, ts, "rtossimd_jobs_queued"); v != 0 {
		t.Errorf("queued gauge = %v after canceling the only queued job, want 0", v)
	}
	next := postJob(t, ts, Request{Scenario: data, Options: optionsVariant(1)})
	if got := getJob(t, ts, next.ID); got.State != StateQueued || got.QueuePosition == nil || *got.QueuePosition != 0 {
		t.Errorf("submission after the cancel: state %s, position %v; want queued at 0", got.State, got.QueuePosition)
	}
	s.Cancel(blocker.ID)
	if done := waitTerminal(t, ts, next.ID); done.State != StateDone {
		t.Errorf("job in the freed slot: %s (%s)", done.State, done.Error)
	}
}
