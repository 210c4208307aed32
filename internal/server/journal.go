package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/explore"
	"repro/internal/runner"
)

// The job journal makes rtossimd crash-safe: every submission, cancellation
// request and terminal state is appended to one NDJSON file, each line
// CRC-tagged, and replayed on startup. The guarantees are narrow and
// documented in DESIGN.md: an acknowledged submission survives a crash (the
// submit record is fsynced before the 202 goes out), a terminal state
// recorded before the crash survives with its result bytes, and anything in
// between — queued or running at the moment of the kill — is re-enqueued and
// re-run from scratch on the next start. Because simulations are
// deterministic functions of the canonical scenario, the re-run serves the
// same bytes the uninterrupted run would have.
//
// Record format: one record per line,
//
//	crc32(payload) in 8 hex digits, one space, the payload JSON, '\n'
//
// Replay stops at the first line that is truncated, fails its CRC, or does
// not decode: a torn tail (the crash happened mid-append) costs exactly the
// records at and after the tear, never the journal. The file is truncated
// back to the last valid record before appending resumes, so a corrupt tail
// cannot poison later appends.
//
// Compaction rewrites the journal as a snapshot of the in-memory job table —
// one submit record plus at most one terminal record per job — dropping
// cancel-request records, records superseded across restarts, and records
// replay rejected. It runs automatically once terminal records dominate live
// ones and the file holds more records than a snapshot would, and once on
// startup when replay found garbage.

// journalRecord is one journal line. Op selects which fields are meaningful:
//
//	"submit": ID, Time (submission), Kind, Hash, Req
//	"cancel": ID, Time (cancellation request; written for running jobs so a
//	          crash before the terminal record replays as canceled, not re-run)
//	"end":    ID, Time (finish), State, Started, Error, CacheHit, Out
type journalRecord struct {
	Op   string    `json:"op"`
	ID   string    `json:"id"`
	Time time.Time `json:"time"`

	Kind JobKind  `json:"kind,omitempty"`
	Hash string   `json:"hash,omitempty"`
	Req  *Request `json:"req,omitempty"`

	State    JobState       `json:"state,omitempty"`
	Started  time.Time      `json:"started,omitzero"`
	Error    string         `json:"error,omitempty"`
	CacheHit bool           `json:"cacheHit,omitempty"`
	Out      *storedOutputs `json:"out,omitempty"`
}

// storedOutputs is a terminal job's servable bytes: the exact payloads the
// report/trace/metrics/results endpoints return. It is both the in-memory
// output form of every terminal job and its journal form, so a restarted
// daemon serves byte-identical artifacts for jobs that finished in a
// previous life. Exactly one group is set, matching the job kind.
type storedOutputs struct {
	Result *storedResult `json:"result,omitempty"`

	SweepSummary *batch.Summary `json:"sweepSummary,omitempty"`
	SweepReport  []byte         `json:"sweepReport,omitempty"`
	SweepResults []byte         `json:"sweepResults,omitempty"`

	ExploreSummary *explore.Summary `json:"exploreSummary,omitempty"`
	ExploreReport  []byte           `json:"exploreReport,omitempty"`
	ExploreMetrics []byte           `json:"exploreMetrics,omitempty"`
}

// storedResult holds a runner.Result: the struct's JSON fields in Meta
// (whose own Report and Artifacts stay nil) plus the report and artifact
// bytes its marshalling deliberately omits. Stored results are immutable;
// the result cache shares them between jobs.
type storedResult struct {
	Meta      runner.Result     `json:"meta"`
	Report    []byte            `json:"report,omitempty"`
	Artifacts map[string][]byte `json:"artifacts,omitempty"`
}

func storeResult(r *runner.Result) *storedResult {
	s := &storedResult{Meta: *r, Report: r.Report, Artifacts: r.Artifacts}
	s.Meta.Report, s.Meta.Artifacts = nil, nil
	return s
}

// journal owns the open journal file. It is guarded by the server mutex like
// everything else job-related; appends fsync before returning so an
// acknowledged record survives a crash. The journal has one writer: lock
// holds an exclusive flock on a lock file beside it for the journal's
// lifetime (a separate file, because compaction renames the journal).
type journal struct {
	path    string
	f       *os.File
	lock    *os.File
	records int   // valid records currently in the file
	size    int64 // length of the file's valid prefix
	logf    func(format string, args ...any)
}

const (
	journalFile = "journal.ndjson"
	lockFile    = "journal.lock"
)

// openJournal opens (creating if needed) the journal in dir, replays the
// valid prefix, truncates any torn tail, and returns the decoded records.
func openJournal(dir string, logf func(string, ...any)) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	lockPath := filepath.Join(dir, lockFile)
	lock, err := os.OpenFile(lockPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, nil, fmt.Errorf("journal: %s is held by another server: %w", lockPath, err)
	}
	j := &journal{path: filepath.Join(dir, journalFile), lock: lock, logf: logf}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		j.close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f

	data, err := io.ReadAll(f)
	if err != nil {
		j.close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	var recs []journalRecord
	valid := int64(0) // byte offset just past the last valid record
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated final line: a torn append. Even if it decodes,
			// the write was never known complete — drop it.
			j.logf("journal: dropping unterminated final record (offset %d)", off)
			break
		}
		rec, ok := decodeRecord(data[off : off+nl])
		if !ok {
			j.logf("journal: stopping replay at corrupt record %d (offset %d)", len(recs), off)
			break
		}
		recs = append(recs, rec)
		off += nl + 1
		valid = int64(off)
	}
	if err := f.Truncate(valid); err != nil {
		j.close()
		return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		j.close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.records = len(recs)
	j.size = valid
	return j, recs, nil
}

// decodeRecord parses one journal line, verifying its CRC tag.
func decodeRecord(line []byte) (journalRecord, bool) {
	var rec journalRecord
	if len(line) < 10 || line[8] != ' ' {
		return rec, false
	}
	var crc uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &crc); err != nil {
		return rec, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != crc {
		return rec, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, false
	}
	return rec, true
}

func encodeRecord(buf *bytes.Buffer, rec *journalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(buf, "%08x ", crc32.ChecksumIEEE(payload))
	buf.Write(payload)
	buf.WriteByte('\n')
	return nil
}

// append writes one record and fsyncs. Errors are reported to the caller:
// the server rejects a submission it cannot journal, and logs a failed end
// or cancel record. A failed write or sync may leave part of the record in
// the file, and replay stops at the first bad line, so the file is cut back
// to its last known-good length — by path, since the handle may be what
// failed — before the error returns.
func (j *journal) append(rec *journalRecord) error {
	if j == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := encodeRecord(&buf, rec); err != nil {
		return fmt.Errorf("journal: encoding %s/%s: %w", rec.Op, rec.ID, err)
	}
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return j.undo(fmt.Errorf("journal: appending %s/%s: %w", rec.Op, rec.ID, err))
	}
	if err := j.f.Sync(); err != nil {
		return j.undo(fmt.Errorf("journal: sync: %w", err))
	}
	j.records++
	j.size += int64(buf.Len())
	return nil
}

// undo truncates the file back to its valid prefix after a failed append
// and returns err, joined with any truncation failure.
func (j *journal) undo(err error) error {
	if terr := os.Truncate(j.path, j.size); terr != nil {
		return errors.Join(err, fmt.Errorf("journal: truncating failed append: %w", terr))
	}
	j.f.Seek(j.size, io.SeekStart)
	return err
}

// rewrite atomically replaces the journal with the given records: write a
// temp file in the same directory, fsync, rename over, reopen for append.
func (j *journal) rewrite(recs []journalRecord) error {
	if j == nil {
		return nil
	}
	var buf bytes.Buffer
	for i := range recs {
		if err := encodeRecord(&buf, &recs[i]); err != nil {
			return fmt.Errorf("journal: compacting: %w", err)
		}
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compacting: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("journal: compacting: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: compacting: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: compacting: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return fmt.Errorf("journal: compacting: %w", err)
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopening after compaction: %w", err)
	}
	old.Close()
	j.f = nf
	j.records = len(recs)
	j.size = int64(buf.Len())
	return nil
}

// close closes the journal file and releases the writer lock.
func (j *journal) close() {
	if j == nil {
		return
	}
	if j.f != nil {
		j.f.Close()
	}
	j.lock.Close()
}
