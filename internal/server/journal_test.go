package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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
	if _, rec.Hash, err = scenario.Canonicalize(data); err != nil {
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
	if _, rec.Hash, err = scenario.Canonicalize(data); err != nil {
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

	s, ts := newTestServer(t, Config{Journal: dir, CompactEvery: 4})
	var last string
	for i := 0; i < 6; i++ {
		last = waitTerminal(t, ts, postJob(t, ts, Request{Scenario: data}).ID).ID
	}
	s.CompactJournal()
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
