package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatedWriter is a ResponseWriter whose Write blocks until the gate opens:
// it pins the stream handler mid-write while the job logs far more events
// than a 64-slot buffer would hold, checking that the stream still ends
// complete and in order. entered is closed by the first Write.
type gatedWriter struct {
	gate    <-chan struct{}
	entered chan struct{}
	once    sync.Once
	mu      sync.Mutex
	buf     bytes.Buffer
	h       http.Header
}

func (w *gatedWriter) Header() http.Header { return w.h }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *gatedWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

func TestStreamDroppedEventTailReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	blocker := postJob(t, ts, slowSweepRequest(t))

	// A fast sweep with ~100 variants: >100 progress events, well past the
	// 64 events a buffered fan-out would hold for a blocked reader.
	seeds := make([]int, 100)
	for i := range seeds {
		seeds[i] = i + 1
	}
	seedJSON, _ := json.Marshal(seeds)
	target := postJob(t, ts, Request{
		Kind: KindSweep,
		Scenario: json.RawMessage(`{
			"name": "fast", "horizon": "1ms",
			"processors": [{"name": "cpu0"}],
			"tasks": [{"name": "t", "processor": "cpu0", "priority": 2, "period": "100us",
			           "body": [{"op": "execute", "for": "10us"}]}]
		}`),
		Sweep: json.RawMessage(`{"workers": 1, "seeds": ` + string(seedJSON) + `}`),
	})

	gate := make(chan struct{})
	w := &gatedWriter{gate: gate, entered: make(chan struct{}), h: make(http.Header)}
	req := httptest.NewRequest("GET", "/v1/jobs/"+target.ID+"/stream", nil)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		s.Handler().ServeHTTP(w, req)
	}()

	// Wait until the stream handler is in its first Write, then let the
	// sweep run while the reader stays wedged there.
	select {
	case <-w.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("stream handler never wrote")
	}
	if !s.Cancel(blocker.ID) {
		t.Fatal("cancel blocker")
	}
	done := waitTerminal(t, ts, target.ID)
	if done.State != StateDone {
		t.Fatalf("target sweep: %s (%s)", done.State, done.Error)
	}
	close(gate)
	select {
	case <-handlerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("stream handler did not finish after terminal state")
	}

	// The job produced more events than a 64-slot buffer holds…
	s.mu.Lock()
	total := len(s.jobs[target.ID].events)
	s.mu.Unlock()
	if total <= 64 {
		t.Fatalf("job produced %d events, want >64 to overflow the buffer", total)
	}
	// …yet the stream delivers every one of them, in order, terminal last.
	var events []Event
	for _, line := range strings.Split(strings.TrimSpace(string(w.bytes())), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) != total {
		t.Errorf("stream delivered %d events, job log holds %d", len(events), total)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: stream lost or reordered events", i, ev.Seq)
		}
	}
	if !events[len(events)-1].State.terminal() {
		t.Errorf("stream ended on non-terminal event %+v", events[len(events)-1])
	}
}

func TestCancelRacesCompletion(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2})
	data := readScenario(t, "figure6.json")

	// Fire cancels concurrently with job completion, over and over: whatever
	// the interleaving, the job must land in exactly one terminal state and
	// the stream must still terminate.
	for i := 0; i < 12; i++ {
		job := postJob(t, ts, Request{Scenario: data, Options: optionsVariant(i)})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Cancel(job.ID)
		}()
		done := waitTerminal(t, ts, job.ID)
		wg.Wait()
		if done.State != StateDone && done.State != StateCanceled {
			t.Fatalf("race iteration %d: state %s (%s)", i, done.State, done.Error)
		}
		// Cancel after terminal must stay idempotent and truthful.
		if !s.Cancel(job.ID) {
			t.Fatalf("cancel of finished job %s reported unknown", job.ID)
		}
		stream, code := getBytes(t, ts, "/v1/jobs/"+job.ID+"/stream")
		if code != http.StatusOK {
			t.Fatalf("/stream: %d", code)
		}
		lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
		var last Event
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.State.terminal() {
			t.Fatalf("race iteration %d: stream tail %v %+v", i, err, last)
		}
	}
}
