package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// journalLines reads the journal file's lines (for structural assertions).
func journalLines(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	s := strings.TrimSuffix(string(data), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	data := readScenario(t, "figure6.json")

	// First life: run one simulate job and one cache hit against it.
	s1, ts1 := newTestServer(t, Config{Journal: dir})
	first := waitTerminal(t, ts1, postJob(t, ts1, Request{Scenario: data}).ID)
	if first.State != StateDone {
		t.Fatalf("first job: %s (%s)", first.State, first.Error)
	}
	hit := postJob(t, ts1, Request{Scenario: data})
	if !hit.CacheHit {
		t.Fatalf("second submission missed the cache: %+v", hit)
	}
	report1, code := getBytes(t, ts1, "/v1/jobs/"+first.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("/report: %d", code)
	}
	ts1.Close()
	s1.Close()

	// Second life: both jobs restored, bytes identical, IDs not reused.
	s2, ts2 := newTestServer(t, Config{Journal: dir})
	got := getJob(t, ts2, first.ID)
	if got.State != StateDone || got.Hash != first.Hash {
		t.Fatalf("restored job: %+v", got)
	}
	report2, code := getBytes(t, ts2, "/v1/jobs/"+first.ID+"/report")
	if code != http.StatusOK || !bytes.Equal(report1, report2) {
		t.Errorf("restored report differs (status %d)", code)
	}
	trace, code := getBytes(t, ts2, "/v1/jobs/"+first.ID+"/trace")
	if code != http.StatusOK || !json.Valid(trace) {
		t.Errorf("restored trace: status %d", code)
	}
	// The cache-hit job relinks its payload through the restored cache.
	hitReport, code := getBytes(t, ts2, "/v1/jobs/"+hit.ID+"/report")
	if code != http.StatusOK || !bytes.Equal(report1, hitReport) {
		t.Errorf("restored cache-hit report differs (status %d)", code)
	}
	// A fresh submission of the same scenario hits the restored cache.
	again := postJob(t, ts2, Request{Scenario: data})
	if !again.CacheHit {
		t.Error("restored cache did not serve a resubmission")
	}
	if again.ID <= hit.ID {
		t.Errorf("job IDs reused across restart: %s after %s", again.ID, hit.ID)
	}
	// The restored job's stream still ends with a terminal event.
	stream, code := getBytes(t, ts2, "/v1/jobs/"+first.ID+"/stream")
	if code != http.StatusOK {
		t.Fatalf("/stream: %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.State.terminal() {
		t.Errorf("restored stream did not end terminal: %v %+v", err, last)
	}
	_ = s2
}

func TestJournalReenqueuesUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	data := readScenario(t, "figure6.json")

	// Hand-write a journal holding a submit with no end record — exactly what
	// a SIGKILL mid-run leaves behind.
	var buf bytes.Buffer
	rec := journalRecord{Op: "submit", ID: "j000007", Time: time.Now(),
		Kind: KindSimulate, Req: &Request{Kind: KindSimulate, Scenario: data}}
	var err error
	if rec.Hash, err = scenario.HashBytes(data); err != nil {
		t.Fatal(err)
	}
	if err := encodeRecord(&buf, &rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Journal: dir})
	done := waitTerminal(t, ts, "j000007")
	if done.State != StateDone {
		t.Fatalf("re-enqueued job: %s (%s)", done.State, done.Error)
	}
	// The next fresh submission must not collide with the recovered ID space.
	next := postJob(t, ts, Request{Scenario: data})
	if next.ID != "j000008" {
		t.Errorf("ID sequence after recovery = %s, want j000008", next.ID)
	}
}

func TestJournalCancelRecordHonoredOnReplay(t *testing.T) {
	dir := t.TempDir()
	data := readScenario(t, "figure6.json")

	var buf bytes.Buffer
	rec := journalRecord{Op: "submit", ID: "j000001", Time: time.Now(),
		Kind: KindSimulate, Req: &Request{Kind: KindSimulate, Scenario: data}}
	var err error
	if rec.Hash, err = scenario.HashBytes(data); err != nil {
		t.Fatal(err)
	}
	if err := encodeRecord(&buf, &rec); err != nil {
		t.Fatal(err)
	}
	if err := encodeRecord(&buf, &journalRecord{Op: "cancel", ID: "j000001", Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Journal: dir})
	job := getJob(t, ts, "j000001")
	if job.State != StateCanceled {
		t.Fatalf("job with journaled cancel replayed as %s, want canceled", job.State)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	data := readScenario(t, "figure6.json")

	s1, ts1 := newTestServer(t, Config{Journal: dir})
	job := waitTerminal(t, ts1, postJob(t, ts1, Request{Scenario: data}).ID)
	ts1.Close()
	s1.Close()

	// Simulate a crash mid-append: a valid prefix plus half a record.
	path := filepath.Join(dir, journalFile)
	if err := os.WriteFile(path, append(mustRead(t, path), []byte("deadbeef {\"op\":\"sub")...), 0o644); err != nil {
		t.Fatal(err)
	}
	before := len(journalLines(t, dir))

	s2, ts2 := newTestServer(t, Config{Journal: dir})
	got := getJob(t, ts2, job.ID)
	if got.State != StateDone {
		t.Fatalf("torn tail lost the valid prefix: job is %s", got.State)
	}
	// The torn line must be gone from disk so appends cannot corrupt.
	if after := len(journalLines(t, dir)); after >= before {
		t.Errorf("torn tail not truncated: %d lines, had %d", after, before)
	}
	// And a corrupt CRC mid-file stops replay at the corruption, not before.
	ts2.Close()
	s2.Close()

	lines := journalLines(t, dir)
	lines[0] = "00000000" + lines[0][8:] // break the first record's CRC
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServer(t, Config{Journal: dir})
	if _, code := getBytes(t, ts3, "/v1/jobs/"+job.ID); code != http.StatusNotFound {
		t.Errorf("job behind a corrupt record survived replay: status %d", code)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	data := readScenario(t, "figure6.json")

	s, ts := newTestServer(t, Config{Journal: dir})
	var last string
	for i := 0; i < 6; i++ {
		last = waitTerminal(t, ts, postJob(t, ts, Request{Scenario: data}).ID).ID
	}
	s.mu.Lock()
	s.compactLocked()
	s.mu.Unlock()
	lines := journalLines(t, dir)
	// Snapshot form: one submit plus one end record per job, nothing else.
	s.mu.Lock()
	want := len(s.order) + s.terminal
	s.mu.Unlock()
	if len(lines) != want {
		t.Errorf("compacted journal holds %d records, want %d", len(lines), want)
	}
	// Everything still servable after compaction + restart.
	ts.Close()
	s.Close()
	_, ts2 := newTestServer(t, Config{Journal: dir})
	if job := getJob(t, ts2, last); job.State != StateDone {
		t.Errorf("job %s after compacted restart: %s", last, job.State)
	}
}

// TestJournalAutoCompaction drives the automatic trigger across
// compactEvery: dead-weight records (cancel requests for a finished job)
// below the interval leave the journal alone, and the record that reaches
// it rewrites the journal as a snapshot.
func TestJournalAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Journal: dir})
	id := waitTerminal(t, ts, postJob(t, ts, Request{Scenario: readScenario(t, "figure6.json")}).ID).ID

	appendDead := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.journalLocked(&journalRecord{Op: "cancel", ID: id, Time: time.Now()})
		s.maybeCompactLocked()
	}
	for n := len(journalLines(t, dir)); n < compactEvery-1; n++ {
		appendDead()
	}
	if n := len(journalLines(t, dir)); n != compactEvery-1 {
		t.Fatalf("journal compacted early: %d records, want %d", n, compactEvery-1)
	}
	appendDead()
	if n := len(journalLines(t, dir)); n != 2 {
		t.Errorf("journal after crossing the interval holds %d records, want the 2-record snapshot", n)
	}

	ts.Close()
	s.Close()
	_, ts2 := newTestServer(t, Config{Journal: dir})
	if job := getJob(t, ts2, id); job.State != StateDone {
		t.Errorf("job %s after auto-compacted restart: %s", id, job.State)
	}
}

func TestQueueFullResponseCarriesBackpressure(t *testing.T) {
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
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 carries no Retry-After header")
	}
	var info struct {
		Error           string `json:"error"`
		QueueDepth      *int   `json:"queueDepth"`
		EstimatedWaitMs *int64 `json:"estimatedWaitMs"`
		RetryAfterSec   int    `json:"retryAfterSec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Error == "" || info.QueueDepth == nil || info.EstimatedWaitMs == nil || info.RetryAfterSec < 1 {
		t.Errorf("503 body incomplete: %+v", info)
	}
	if *info.QueueDepth != 1 {
		t.Errorf("queueDepth = %d, want 1", *info.QueueDepth)
	}
}

func TestQueuePositionReporting(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	blocker := postJob(t, ts, slowSweepRequest(t))
	data := readScenario(t, "figure6.json")
	q1 := postJob(t, ts, Request{Scenario: data})
	q2 := postJob(t, ts, Request{Scenario: data, Options: optionsVariant(1)})

	// Wait until the blocker is actually running so positions are stable.
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, blocker.ID).State == StateQueued && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	g1, g2 := getJob(t, ts, q1.ID), getJob(t, ts, q2.ID)
	if g1.QueuePosition == nil || *g1.QueuePosition != 0 {
		t.Errorf("first queued job position = %v, want 0", g1.QueuePosition)
	}
	if g2.QueuePosition == nil || *g2.QueuePosition != 1 {
		t.Errorf("second queued job position = %v, want 1", g2.QueuePosition)
	}

	// Canceling the job ahead promotes the one behind it.
	s.Cancel(q1.ID)
	g2 = getJob(t, ts, q2.ID)
	if g2.QueuePosition == nil || *g2.QueuePosition != 0 {
		t.Errorf("position after cancel ahead = %v, want 0", g2.QueuePosition)
	}
	s.Cancel(blocker.ID)
	waitTerminal(t, ts, blocker.ID)
	done := waitTerminal(t, ts, q2.ID)
	if done.QueuePosition != nil {
		t.Error("terminal job still reports a queue position")
	}
}

// optionsVariant returns Options that differ per i, to defeat the cache.
func optionsVariant(i int) (o runner.Options) {
	o.Width = 100 + i
	o.Timeline = true
	return o
}

// TestJournalDropsRetiredKnobJob: a job journaled with a scenario field the
// parser no longer knows (here the retired autoEngine knob) fails
// revalidation on replay; the daemon drops it with a log line instead of
// refusing to start.
func TestJournalDropsRetiredKnobJob(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`{"autoEngine": false, "processors": [{"name": "p"}], "tasks": [{"name": "t", "processor": "p", "body": [{"op": "execute", "for": "1us"}]}]}`)
	if err := j.append(&journalRecord{Op: "submit", ID: "j000001", Time: time.Now(), Kind: KindSimulate, Req: &Request{Scenario: doc}}); err != nil {
		t.Fatal(err)
	}
	j.close()

	var logs []string
	_, ts := newTestServer(t, Config{Journal: dir, Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	all := strings.Join(logs, "\n")
	if !strings.Contains(all, "journal: dropping job j000001") || !strings.Contains(all, `unknown field "autoEngine"`) {
		t.Errorf("no drop log line for the retired-knob job; logs:\n%s", all)
	}
	if _, code := getBytes(t, ts, "/v1/jobs/j000001"); code != http.StatusNotFound {
		t.Errorf("retired-knob job restored: status %d", code)
	}
}

// A result record journaled by an older daemon may carry result fields that
// no longer exist (the retired "autoLowered" task list). Replay decodes
// records non-strictly, so such a record still restores its job and serves
// later submissions of the same scenario as cache hits.
func TestJournalReplaysRetiredResultField(t *testing.T) {
	dir := t.TempDir()
	data := readScenario(t, "figure6.json")
	s1, ts1 := newTestServer(t, Config{Journal: dir})
	first := waitTerminal(t, ts1, postJob(t, ts1, Request{Scenario: data}).ID)
	if first.State != StateDone {
		t.Fatalf("first job: %s (%s)", first.State, first.Error)
	}
	report1, _ := getBytes(t, ts1, "/v1/jobs/"+first.ID+"/report")
	ts1.Close()
	s1.Close()

	// Rewrite the end record as the older daemon wrote it.
	var buf bytes.Buffer
	patched := false
	for _, line := range journalLines(t, dir) {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line[9:]), &rec); err != nil {
			t.Fatal(err)
		}
		if out, ok := rec["out"]; ok {
			old := strings.Replace(string(out), `"meta":{`, `"meta":{"autoLowered":["a","b"],`, 1)
			if old == string(out) {
				t.Fatalf("end record has no result meta: %s", out)
			}
			rec["out"] = json.RawMessage(old)
			patched = true
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	}
	if !patched {
		t.Fatal("journal holds no end record")
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{Journal: dir})
	got := getJob(t, ts2, first.ID)
	if got.State != StateDone {
		t.Fatalf("record with a retired field not restored: %+v", got)
	}
	report2, code := getBytes(t, ts2, "/v1/jobs/"+first.ID+"/report")
	if code != http.StatusOK || !bytes.Equal(report1, report2) {
		t.Errorf("restored report differs (status %d)", code)
	}
	if again := postJob(t, ts2, Request{Scenario: data}); !again.CacheHit {
		t.Error("restored result did not serve a resubmission as a cache hit")
	}
}

// TestJournalSingleWriter checks the journal's writer lock: a second server
// on a live server's journal directory fails at startup with an error naming
// the lock file, and once the first server closes the directory opens again.
func TestJournalSingleWriter(t *testing.T) {
	dir := t.TempDir()
	data := readScenario(t, "figure6.json")
	s1, err := New(Config{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	job := waitTerminal(t, ts1, postJob(t, ts1, Request{Scenario: data}).ID)

	if s2, err := New(Config{Journal: dir}); err == nil {
		s2.Close()
		t.Fatal("second server opened a journal directory held by a live server")
	} else if !strings.Contains(err.Error(), filepath.Join(dir, lockFile)) {
		t.Errorf("error %q does not name the lock file", err)
	}
	ts1.Close()
	s1.Close()

	// Reopen after Close, the daemon benchmark's set-up and teardown cycle.
	for i := 0; i < 2; i++ {
		s, err := New(Config{Journal: dir})
		if err != nil {
			t.Fatalf("reopen %d after Close: %v", i, err)
		}
		ts := httptest.NewServer(s.Handler())
		if got := getJob(t, ts, job.ID); got.State != StateDone {
			t.Errorf("reopen %d: job is %s, want done", i, got.State)
		}
		ts.Close()
		s.Close()
	}
}

// A sweep whose axis breaks the base scenario (cores below a task's
// affinity, the global domain for a pinned task) ends done with failed
// variants, and the daemon keeps serving. Replaying the journaled job after
// a restart runs it the same way.
func TestSweepInvalidVariantKeepsServing(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "runner", "testdata", "aff.json"))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindSweep, Scenario: data,
		Sweep: json.RawMessage(`{"cores": [1, 2], "domains": ["partitioned", "global"]}`)}
	check := func(ts *httptest.Server, id string) {
		t.Helper()
		done := waitTerminal(t, ts, id)
		if done.State != StateDone || done.SweepSummary == nil || done.SweepSummary.Failures != 3 {
			t.Fatalf("sweep %s: state %s, summary %+v; want done with 3 failures", id, done.State, done.SweepSummary)
		}
		report, _ := getBytes(t, ts, "/v1/jobs/"+id+"/report")
		if !strings.Contains(string(report), `FAILED: scenario: task "a": affinity 1 out of range`) {
			t.Errorf("report lacks the validation failure:\n%s", report)
		}
		if _, code := getBytes(t, ts, "/healthz"); code != http.StatusOK {
			t.Errorf("/healthz: %d after the sweep", code)
		}
	}
	_, ts := newTestServer(t, Config{})
	check(ts, postJob(t, ts, req).ID)

	// A journal holding the submit and no end record: the job is replayed
	// and re-run on restart.
	dir := t.TempDir()
	rec := journalRecord{Op: "submit", ID: "j000001", Time: time.Now(), Kind: KindSweep, Req: &req}
	if rec.Hash, err = scenario.HashBytes(data); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeRecord(&buf, &rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Journal: dir})
	check(ts2, "j000001")
}

// A submission whose journal append fails is rejected with 503 and leaves no
// trace: no job, no used-up ID, and no partial line that would stop replay
// before later records.
func TestJournalAppendFailureRejectsSubmission(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Journal: dir})

	// A torn record already at the tail, as a crashed append leaves it.
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"op":"sub`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s.mu.Lock()
	good := s.jnl.f
	s.jnl.f = full
	s.mu.Unlock()
	body, _ := json.Marshal(Request{Scenario: readScenario(t, "figure6.json")})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(msg), "journal") {
		t.Fatalf("submit with a failing journal: status %d: %s; want 503 naming the journal", resp.StatusCode, msg)
	}
	if list, _ := getBytes(t, ts, "/v1/jobs"); strings.TrimSpace(string(list)) != "[]" {
		t.Errorf("rejected submission is listed: %s", list)
	}
	if v := promValue(t, ts, "rtossimd_jobs_submitted_total"); v != 0 {
		t.Errorf("submitted counter = %v after a rejected submission", v)
	}

	s.mu.Lock()
	s.jnl.f = good
	s.mu.Unlock()
	tiny := []byte(`{"name": "tiny", "horizon": "1ms", "processors": [{"name": "cpu0"}],
		"tasks": [{"name": "t", "processor": "cpu0", "priority": 2, "period": "100us",
		           "body": [{"op": "execute", "for": "10us"}]}]}`)
	job := postJob(t, ts, Request{Scenario: tiny})
	if job.ID != "j000001" {
		t.Errorf("accepted job is %s, want j000001: the rejected submission used up an ID", job.ID)
	}
	waitTerminal(t, ts, job.ID)
	ts.Close()
	s.Close()

	_, ts2 := newTestServer(t, Config{Journal: dir})
	var jobs []Job
	list, _ := getBytes(t, ts2, "/v1/jobs")
	if err := json.Unmarshal(list, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID || jobs[0].Hash != job.Hash || jobs[0].State != StateDone {
		t.Fatalf("replayed jobs = %+v, want exactly the accepted %s done", jobs, job.ID)
	}
}

// Live and restored jobs serve one output form: every byte endpoint, and the
// status JSON with its timestamps masked, answers the same bytes before and
// after a restart on the journal, for each kind of terminal job.
func TestRestoredJobsServeLiveBytes(t *testing.T) {
	dir := t.TempDir()
	data := readScenario(t, "figure6.json")
	s, ts := newTestServer(t, Config{Shards: 1, Journal: dir})

	running := func(id string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for getJob(t, ts, id).State == StateQueued && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	cases := []struct {
		name string
		run  func() string // submits the job and returns its ID once terminal
	}{
		{"simulate", func() string { return waitTerminal(t, ts, postJob(t, ts, Request{Scenario: data}).ID).ID }},
		{"cache hit", func() string { return postJob(t, ts, Request{Scenario: data}).ID }},
		{"sweep", func() string {
			return waitTerminal(t, ts, postJob(t, ts, Request{Kind: KindSweep, Scenario: data,
				Sweep: json.RawMessage(`{"engines": ["procedural", "threaded"], "speeds": [1, 2]}`)}).ID).ID
		}},
		{"explore", func() string {
			return waitTerminal(t, ts, postJob(t, ts, Request{Kind: KindExplore,
				Scenario: readScenario(t, "faults.json"), Explore: runner.ExploreOptions{Runs: 8, Workers: 2}}).ID).ID
		}},
		{"canceled queued", func() string {
			blocker := postJob(t, ts, slowSweepRequest(t))
			running(blocker.ID)
			id := postJob(t, ts, Request{Scenario: data, Options: optionsVariant(1)}).ID
			s.Cancel(id)
			s.Cancel(blocker.ID)
			waitTerminal(t, ts, blocker.ID)
			return id
		}},
		{"canceled sweep", func() string {
			id := postJob(t, ts, slowSweepRequest(t)).ID
			running(id)
			s.Cancel(id)
			return waitTerminal(t, ts, id).ID
		}},
	}
	stamps := regexp.MustCompile(`"(created|started|finished)": "[^"]*"`)
	paths := func(id string) []string {
		p := []string{"", "/report", "/trace", "/metrics", "/results"}
		for _, name := range runner.KnownArtifacts {
			p = append(p, "/artifacts/"+name)
		}
		for i := range p {
			p[i] = "/v1/jobs/" + id + p[i]
		}
		return p
	}
	fetch := func(ts *httptest.Server, path string) string {
		data, code := getBytes(t, ts, path)
		return fmt.Sprintf("%d %s", code, stamps.ReplaceAll(data, []byte(`"$1": "T"`)))
	}

	ids := make([]string, len(cases))
	live := map[string]string{}
	for i, c := range cases {
		ids[i] = c.run()
		for _, p := range paths(ids[i]) {
			live[p] = fetch(ts, p)
		}
	}
	if got := getJob(t, ts, ids[1]); !got.CacheHit {
		t.Fatalf("cache-hit case was not served from the cache: %+v", got)
	}
	list := fetch(ts, "/v1/jobs")
	ts.Close()
	s.Close()

	_, ts2 := newTestServer(t, Config{Shards: 1, Journal: dir})
	for i, c := range cases {
		for _, p := range paths(ids[i]) {
			if got := fetch(ts2, p); got != live[p] {
				t.Errorf("%s: GET %s after restart differs:\n--- live\n%.400s\n--- restored\n%.400s", c.name, p, live[p], got)
			}
		}
	}
	if got := fetch(ts2, "/v1/jobs"); got != list {
		t.Errorf("job list differs after restart:\n--- live\n%s\n--- restored\n%s", list, got)
	}
}
