package serve

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"sdadcs/internal/engine"
	"sdadcs/internal/metrics"
	"sdadcs/internal/trace"
)

// TestFinishedJobReleasesTracer: a job drops its live tracer ring when it
// reaches a terminal state, and /v1/jobs/{id}/trace keeps serving the same
// body — the run's own trace snapshot for a done job, the ring as the mine
// left it for a failed or canceled one.
func TestFinishedJobReleasesTracer(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})
	small := c.register(smallCSV)
	heavy := c.register(heavyCSV(2500, 8))

	job := func(id string) *Job {
		t.Helper()
		j, ok := s.Manager().Job(id)
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		return j
	}
	// liveRing waits for the job to start running and returns its ring.
	liveRing := func(id string) *trace.Tracer {
		t.Helper()
		j := job(id)
		deadline := time.Now().Add(10 * time.Second)
		for {
			j.mu.Lock()
			tr, state := j.tr, j.state
			j.mu.Unlock()
			if tr != nil {
				return tr
			}
			if state.Terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s never seen running (state %s)", id, state)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// finished waits for the terminal state and checks the ring is gone.
	finished := func(id string, want JobState) *Job {
		t.Helper()
		j := job(id)
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s did not finish", id)
		}
		j.mu.Lock()
		tr, state := j.tr, j.state
		j.mu.Unlock()
		if state != want {
			t.Fatalf("job %s ended %s, want %s", id, state, want)
		}
		if tr != nil {
			t.Errorf("%s job %s still holds its tracer ring", state, id)
		}
		return j
	}
	traceBody := func(id string) []byte {
		t.Helper()
		code, body := c.do("GET", "/v1/jobs/"+id+"/trace", nil)
		if code != http.StatusOK {
			t.Fatalf("trace %s: %d %s", id, code, body)
		}
		return body
	}
	jsonl := func(tr *trace.Trace) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	done, _, body := c.submit(map[string]any{"dataset_id": small})
	if done.ID == "" {
		t.Fatalf("submit: %s", body)
	}
	out, _, _ := finished(done.ID, JobDone).Output()
	if got := traceBody(done.ID); len(got) == 0 || !bytes.Equal(got, jsonl(out.Trace)) {
		t.Error("done job's trace body differs from its run's trace snapshot")
	}

	failed, _, body := c.submit(map[string]any{
		"dataset_id": heavy,
		"config":     map[string]any{"max_depth": 4, "delta": 0.01},
		"timeout_ms": 200,
	})
	if failed.ID == "" {
		t.Fatalf("submit: %s", body)
	}
	ring := liveRing(failed.ID)
	finished(failed.ID, JobFailed)
	if got := traceBody(failed.ID); len(got) == 0 || !bytes.Equal(got, jsonl(ring.Snapshot())) {
		t.Error("failed job's trace body differs from the ring it left behind")
	}

	canceled, _, body := c.submit(map[string]any{
		"dataset_id": heavy,
		"config":     map[string]any{"max_depth": 4, "delta": 0.01},
	})
	if canceled.ID == "" {
		t.Fatalf("submit: %s", body)
	}
	ring = liveRing(canceled.ID)
	if code, body := c.do("DELETE", "/v1/jobs/"+canceled.ID, nil); code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	finished(canceled.ID, JobCanceled)
	if got := traceBody(canceled.ID); len(got) == 0 || !bytes.Equal(got, jsonl(ring.Snapshot())) {
		t.Error("canceled job's trace body differs from the ring it left behind")
	}
}

// TestRunningJobProgressDepth: a running job reports the algorithm and the
// depth bound that actually run, resolved by the engine — a subgroup job
// with max_depth 0 mines to the beam search's default depth 2, not the
// levelwise searches' 5.
func TestRunningJobProgressDepth(t *testing.T) {
	cases := []struct {
		cfg       engine.Config
		algorithm string
		depth     int
	}{
		{engine.Config{Algorithm: "subgroup"}, "subgroup", 2},
		{engine.Config{Algorithm: "subgroup", MaxDepth: 3}, "subgroup", 3},
		{engine.Config{}, "sdadcs", 5},
		{engine.Config{Algorithm: "mvd"}, "mvd", 5},
	}
	for _, c := range cases {
		j := &Job{cfg: c.cfg, state: JobRunning, rec: metrics.New()}
		st := j.Status()
		if st.Algorithm != c.algorithm {
			t.Errorf("%+v: algorithm %q, want %q", c.cfg, st.Algorithm, c.algorithm)
		}
		if st.Progress == nil {
			t.Fatalf("%+v: running job reports no progress", c.cfg)
		}
		if st.Progress.MaxDepth != c.depth {
			t.Errorf("%+v: progress max_depth %d, want %d", c.cfg, st.Progress.MaxDepth, c.depth)
		}
	}
}
