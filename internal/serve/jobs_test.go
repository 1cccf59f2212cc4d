package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/metrics"
	"sdadcs/internal/oracle"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// TestTraceAnswersLikeResult: /trace and /explain answer a job that is
// not done the way /result does — 409 with Retry-After while it is
// pending or running, 410 once it failed or was canceled — and none of
// those answers replays a mine.
func TestTraceAnswersLikeResult(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})
	heavy := c.register(heavyCSV(2500, 8))
	routes := []string{"/result", "/trace", "/explain?key=0@-inf,1"}
	expect := func(id string, want int) {
		t.Helper()
		for _, route := range routes {
			req, _ := http.NewRequest("GET", c.base+"/v1/jobs/"+id+route, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s%s: %d %s, want %d", id, route, resp.StatusCode, body, want)
			}
			if retry := resp.Header.Get("Retry-After"); (want == http.StatusConflict) != (retry != "") {
				t.Errorf("%s%s: %d with Retry-After %q", id, route, resp.StatusCode, retry)
			}
		}
	}
	submit := func(req map[string]any) string {
		t.Helper()
		req["dataset_id"] = heavy
		st, code, body := c.submit(req)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, body)
		}
		return st.ID
	}

	running := submit(map[string]any{"config": map[string]any{"max_depth": 4, "delta": 0.01}})
	if st := c.waitState(running, JobRunning, 10*time.Second); st.State != JobRunning {
		t.Fatalf("job reached %s before it was read", st.State)
	}
	pending := submit(map[string]any{"config": map[string]any{"max_depth": 3, "delta": 0.01}})
	expect(running, http.StatusConflict)
	expect(pending, http.StatusConflict)

	for _, id := range []string{pending, running} {
		if code, body := c.do("DELETE", "/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Fatalf("cancel %s: %d %s", id, code, body)
		}
		if st := c.waitState(id, JobCanceled, 10*time.Second); st.State != JobCanceled {
			t.Fatalf("job %s ended %s, want canceled", id, st.State)
		}
		expect(id, http.StatusGone)
	}

	failed := submit(map[string]any{"config": map[string]any{"max_depth": 4, "delta": 0.01}, "timeout_ms": 50})
	if st := c.waitState(failed, JobFailed, 10*time.Second); st.State != JobFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	expect(failed, http.StatusGone)

	if m := s.Metrics(); m.TraceReplays != 0 {
		t.Errorf("%d trace replays for jobs that never finished", m.TraceReplays)
	}
}

// TestTraceReplayOnce: a job mines untraced, and eight concurrent
// /explain reads of it share one replay. A cache-hit job of the same
// config serves the same memoized trace without another replay.
func TestTraceReplayOnce(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 2})
	dsID := c.register(oracleCSV(t, equivalenceSeed))
	cfg := map[string]any{"max_depth": 3}
	st, code, body := c.submit(map[string]any{"dataset_id": dsID, "config": cfg})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if final := c.waitState(st.ID, JobDone, 20*time.Second); final.State != JobDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	j, _ := s.Manager().Job(st.ID)
	out, _, _ := j.Output()
	if out.Metrics == nil || out.Metrics.TraceEvents != 0 {
		t.Fatalf("job metrics %+v, want a snapshot with no trace events", out.Metrics)
	}
	keys := resultKeys(t, c, st.ID)
	if len(keys) == 0 {
		t.Fatal("the job found no contrasts")
	}
	key := keys[0]

	const readers = 8
	bodies := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := c.do("GET", "/v1/jobs/"+st.ID+"/explain?key="+url.QueryEscape(key), nil)
			if code != http.StatusOK {
				t.Errorf("explain %d: %d %s", i, code, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("explain %d differs from explain 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if m := s.Metrics(); m.TraceReplays != 1 {
		t.Fatalf("%d concurrent explains made %d replays, want 1", readers, m.TraceReplays)
	}

	hit, code, body := c.submit(map[string]any{"dataset_id": dsID, "config": cfg})
	if code != http.StatusAccepted || !hit.CacheHit {
		t.Fatalf("resubmit: %d %s, want a cache hit", code, body)
	}
	traces := make([][]byte, 2)
	for i, id := range []string{st.ID, hit.ID} {
		code, body := c.do("GET", "/v1/jobs/"+id+"/trace", nil)
		if code != http.StatusOK || len(body) == 0 {
			t.Fatalf("trace %s: %d %s", id, code, body)
		}
		traces[i] = body
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Error("the cache-hit job's trace differs from its leader's")
	}
	m := s.Metrics()
	if m.TraceReplays != 1 || m.TraceReplayMismatches != 0 || m.MineExecutions != 1 {
		t.Errorf("replays %d, mismatches %d, mine executions %d; want 1, 0, 1",
			m.TraceReplays, m.TraceReplayMismatches, m.MineExecutions)
	}
}

// replayTestMiner mines nothing. Its untraced run returns at once; its
// traced run, the trace replay, is the test's traced function.
type replayTestMiner struct {
	name   string
	traced func(ctx context.Context, d *dataset.Dataset) (engine.Result, error)
}

func (m replayTestMiner) Name() string        { return m.name }
func (m replayTestMiner) Description() string { return "trace replay probe (test only)" }
func (m replayTestMiner) CanonicalKey(engine.Config) string {
	return m.name + "|v1"
}
func (m replayTestMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg engine.Config) (engine.Result, error) {
	if cfg.Trace == nil {
		return engine.Result{}, nil
	}
	res, err := m.traced(ctx, d)
	res.Trace = cfg.Trace.Snapshot()
	return res, err
}

// blockGate steers the blocking replay: it signals entered, then waits
// for its context to end (signaling exited) or for release to close.
type blockGate struct{ entered, exited, release chan struct{} }

var replayGate atomic.Pointer[blockGate]

// signal is a send that never blocks: the test reads the first one.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

var registerReplayMiners = sync.OnceFunc(func() {
	engine.Register(replayTestMiner{name: "replay-block-test", traced: func(ctx context.Context, _ *dataset.Dataset) (engine.Result, error) {
		g := replayGate.Load()
		signal(g.entered)
		select {
		case <-ctx.Done():
			signal(g.exited)
			return engine.Result{}, ctx.Err()
		case <-g.release:
			return engine.Result{}, nil
		}
	}})
	// The diverging replay finds a contrast the job's own run did not.
	engine.Register(replayTestMiner{name: "replay-diverge-test", traced: func(_ context.Context, d *dataset.Dataset) (engine.Result, error) {
		sup := pattern.CountsToSupports(make([]int, d.NumGroups()), d.GroupSizes())
		return engine.Result{Contrasts: []pattern.Contrast{{Set: pattern.NewItemset(), Supports: sup}}}, nil
	}})
})

// TestTraceReplayCanceledNotMemoized: a read whose request ends in the
// middle of a replay leaves nothing memoized, so the next read replays
// again, and a completed replay is then kept. While that replay holds a
// one-worker pool's only replay slot, a read of another job waits for
// the slot under its own request context and replays nothing.
func TestTraceReplayCanceledNotMemoized(t *testing.T) {
	registerReplayMiners()
	gate := &blockGate{entered: make(chan struct{}, 1), exited: make(chan struct{}, 1), release: make(chan struct{})}
	replayGate.Store(gate)
	s, c := newTestServer(t, Options{Workers: 1})
	release := sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(release) // a failed test must not leave a replay blocking the server's close
	doneJob := func(csv []byte) string {
		t.Helper()
		st, code, body := c.submit(map[string]any{"dataset_id": c.register(csv), "config": map[string]any{"algorithm": "replay-block-test"}})
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, body)
		}
		if final := c.waitState(st.ID, JobDone, 10*time.Second); final.State != JobDone {
			t.Fatalf("job ended %s (%s)", final.State, final.Error)
		}
		return st.ID
	}
	id, other := doneJob(smallCSV), doneJob(csvRows(40, "other"))
	// readTrace reads a job's trace in the background under ctx.
	readTrace := func(ctx context.Context, id string) <-chan error {
		req, _ := http.NewRequestWithContext(ctx, "GET", c.base+"/v1/jobs/"+id+"/trace", nil)
		read := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			read <- err
		}()
		return read
	}

	ctx, cancel := context.WithCancel(context.Background())
	read := readTrace(ctx, id)
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("replay never %s", what)
		}
	}
	wait(gate.entered, "started")
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer waitCancel()
	if err := <-readTrace(waitCtx, other); err == nil {
		t.Fatal("a read of another job completed while the only replay slot was taken")
	}
	if m := s.Metrics(); m.TraceReplays != 1 {
		t.Fatalf("%d replays ran with one replay slot, want 1", m.TraceReplays)
	}
	// The client gave up, but the server ends that read only once it sees
	// the connection close. Wait for the read to let go of its job's lock
	// before freeing the slot, or it may still take the slot and replay.
	// memoOf waits for a job's reads to let go of its lock and returns
	// its memoized trace.
	memoOf := func(id string) *trace.Trace {
		t.Helper()
		j, _ := s.Manager().Job(id)
		out, _, _ := j.Output()
		out.traceLock <- struct{}{}
		defer func() { <-out.traceLock }()
		return out.trace
	}
	memoOf(other)
	cancel()
	if err := <-read; err == nil {
		t.Fatal("the canceled read completed")
	}
	wait(gate.exited, "saw its request end")

	if memoOf(id) != nil {
		t.Fatal("a canceled replay was memoized")
	}
	if m := s.Metrics(); m.TraceReplays != 1 {
		t.Fatalf("%d replays, want 1", m.TraceReplays)
	}

	release()
	for i := 0; i < 2; i++ {
		if code, body := c.do("GET", "/v1/jobs/"+id+"/trace", nil); code != http.StatusOK {
			t.Fatalf("read %d after the canceled one: %d %s", i, code, body)
		}
	}
	if m := s.Metrics(); m.TraceReplays != 2 {
		t.Fatalf("%d replays, want 2: the canceled one and one kept", m.TraceReplays)
	}
}

// TestTraceReplayMismatch: a replay that renders a different result than
// the job's answers 500, is logged with the job's ID, bumps the mismatch
// counter and is not memoized.
func TestTraceReplayMismatch(t *testing.T) {
	registerReplayMiners()
	s, c, buf := newLoggedServer(t, Options{Workers: 1})
	dsID := c.register(smallCSV)
	st, code, body := c.submit(map[string]any{"dataset_id": dsID, "config": map[string]any{"algorithm": "replay-diverge-test"}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if final := c.waitState(st.ID, JobDone, 10*time.Second); final.State != JobDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	for _, route := range []string{"/trace", "/explain?key=0@-inf,1"} {
		if code, body := c.do("GET", "/v1/jobs/"+st.ID+route, nil); code != http.StatusInternalServerError {
			t.Errorf("%s: %d %s, want 500", route, code, body)
		}
	}
	if m := s.Metrics(); m.TraceReplays != 2 || m.TraceReplayMismatches != 2 {
		t.Errorf("replays %d, mismatches %d; want 2 and 2", m.TraceReplays, m.TraceReplayMismatches)
	}
	logged := 0
	for _, rec := range logRecords(t, buf) {
		if rec["msg"] == "trace replay mismatch" && rec["job_id"] == st.ID {
			logged++
		}
	}
	if logged != 2 {
		t.Errorf("%d mismatch records with job_id %s, want 2:\n%s", logged, st.ID, buf.String())
	}
	_, page := c.do("GET", "/metrics/prometheus", nil)
	for _, want := range []string{"sdadcs_serve_trace_replays_total 2\n", "sdadcs_serve_trace_replay_mismatches_total 2\n"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestTraceReplayEquivalence: for every algorithm, a done job's /trace is
// the trace of a traced engine.Mine of the same dataset and config — the
// same JSONL at Workers 1 and the same event multiset at Workers 4, with
// timestamps and the span kinds' wall time masked — and /explain gives
// core.Explain's verdict over that trace for every result contrast.
func TestTraceReplayEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		// A fresh server per worker count: Workers is not part of the
		// cache key, so a second job would be a cache hit.
		s, c := newTestServer(t, Options{Workers: 2})
		dsID := c.register(oracleCSV(t, equivalenceSeed))
		d, _, _ := s.Registry().Get(dsID)
		for _, alg := range []string{"sdadcs", "stucco", "mvd", "entropy", "subgroup"} {
			cr := ConfigRequest{Algorithm: alg, BinSize: 10, BeamWidth: 10, Bins: 4, Workers: workers}
			st, code, body := c.submit(map[string]any{"dataset_id": dsID, "config": cr})
			if code != http.StatusAccepted {
				t.Fatalf("%s workers %d: submit %d %s", alg, workers, code, body)
			}
			if final := c.waitState(st.ID, JobDone, 20*time.Second); final.State != JobDone {
				t.Fatalf("%s workers %d: job ended %s (%s)", alg, workers, final.State, final.Error)
			}
			cfg, err := cr.toConfig(d)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trace = trace.New(0)
			ref, err := engine.Mine(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Trace.Dropped != 0 {
				t.Fatalf("%s: the reference trace dropped %d events", alg, ref.Trace.Dropped)
			}
			var want bytes.Buffer
			if err := trace.WriteJSONL(&want, ref.Trace); err != nil {
				t.Fatal(err)
			}
			code, got := c.do("GET", "/v1/jobs/"+st.ID+"/trace", nil)
			if code != http.StatusOK {
				t.Fatalf("%s workers %d: trace %d %s", alg, workers, code, got)
			}
			gl, wl := maskedTraceLines(t, got, workers > 1), maskedTraceLines(t, want.Bytes(), workers > 1)
			if len(wl) == 0 || !slices.Equal(gl, wl) {
				t.Errorf("%s workers %d: /trace holds %d events unlike the traced mine's %d",
					alg, workers, len(gl), len(wl))
			}

			contrasts := resultKeys(t, c, st.ID)
			for _, key := range contrasts {
				code, body := c.do("GET", "/v1/jobs/"+st.ID+"/explain?key="+url.QueryEscape(key), nil)
				var ex explainResponse
				if code != http.StatusOK || json.Unmarshal(body, &ex) != nil {
					t.Fatalf("%s explain %s: %d %s", alg, key, code, body)
				}
				set, err := pattern.ParseKey(key)
				if err != nil {
					t.Fatal(err)
				}
				x := core.Explain(ref.Trace, set)
				if ex.Verdict != x.Verdict || ex.Events != len(x.Events) {
					t.Errorf("%s workers %d explain %s: %q over %d events, want %q over %d",
						alg, workers, key, ex.Verdict, ex.Events, x.Verdict, len(x.Events))
				}
			}
			if workers == 1 && len(contrasts) == 0 {
				t.Errorf("%s: no result contrasts to explain", alg)
			}
		}
		if m := s.Metrics(); m.TraceReplayMismatches != 0 || m.TraceReplays != 5 {
			t.Errorf("workers %d: %d replays, %d mismatches; want 5 and 0", workers, m.TraceReplays, m.TraceReplayMismatches)
		}
	}
}

// equivalenceSeed picks an oracle dataset on which every algorithm finds
// contrasts.
const equivalenceSeed = 0

// oracleCSV renders an oracle dataset as CSV with group column g.
func oracleCSV(t *testing.T, seed int64) []byte {
	t.Helper()
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, oracle.Generate(seed), "g"); err != nil {
		t.Fatal(err)
	}
	return csv.Bytes()
}

// maskedTraceLines re-encodes each JSONL event without its timestamp and
// without the wall time that span kinds carry in v3. Unordered also drops
// the sequence number and worker, and sorts the lines: parallel workers
// interleave their events.
func maskedTraceLines(t *testing.T, jsonl []byte, unordered bool) []string {
	t.Helper()
	var lines []string
	for _, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		delete(ev, "ts_ns")
		switch ev["kind"] {
		case "level", "sdad", "remine":
			delete(ev, "v3")
		}
		if unordered {
			delete(ev, "seq")
			delete(ev, "worker")
		}
		b, _ := json.Marshal(ev) // map keys marshal sorted
		lines = append(lines, string(b))
	}
	if unordered {
		slices.Sort(lines)
	}
	return lines
}

// resultKeys returns the canonical keys of a done job's result contrasts.
func resultKeys(t *testing.T, c *client, id string) []string {
	t.Helper()
	code, body := c.do("GET", "/v1/jobs/"+id+"/result", nil)
	var contrasts []struct {
		Key string `json:"key"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &contrasts) != nil {
		t.Fatalf("result %s: %d %s", id, code, body)
	}
	keys := make([]string, len(contrasts))
	for i, ct := range contrasts {
		keys[i] = ct.Key
	}
	return keys
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
