package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/metrics"
	"sdadcs/internal/obs"
)

// syncBuffer is a concurrency-safe log sink: workers write while the test
// reads.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitLog polls until the log contains substr (the asynchronous tail of a
// job's lifecycle may land just after the API reports the terminal state).
func waitLog(t *testing.T, buf *syncBuffer, substr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("log never contained %q:\n%s", substr, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// logRecords decodes every JSON log line.
func logRecords(t *testing.T, buf *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

func newLoggedServer(t *testing.T, opts Options) (*Server, *client, *syncBuffer) {
	t.Helper()
	buf := &syncBuffer{}
	log, err := obs.Config{Format: "json", Output: buf}.NewLogger()
	if err != nil {
		t.Fatal(err)
	}
	opts.Logger = log
	s, c := newTestServer(t, opts)
	return s, c, buf
}

// TestJobLifecycleCorrelation is the acceptance test for the correlation
// chain: submit one job over HTTP with a caller-supplied request ID, then
// reconstruct its full lifecycle — accepted, queued, running, engine mine
// start/done, job done — from the structured log by job ID alone, and
// verify every one of those records also carries the originating request
// ID. One grep, full story.
func TestJobLifecycleCorrelation(t *testing.T) {
	_, c, buf := newLoggedServer(t, Options{Workers: 2})
	dsID := c.register(heavyCSV(200, 3))

	const rid = "req_corr_test_01"
	body, _ := json.Marshal(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"max_depth": 2},
	})
	req, err := http.NewRequest("POST", c.base+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != rid {
		t.Fatalf("response request ID %q, want %q", got, rid)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}

	c.waitState(st.ID, JobDone, 20*time.Second)
	waitLog(t, buf, "job done")

	// Reconstruct the lifecycle by job ID alone.
	var msgs []string
	jobRecords := 0
	for _, rec := range logRecords(t, buf) {
		if rec["job_id"] != st.ID {
			continue
		}
		jobRecords++
		msgs = append(msgs, rec["msg"].(string))
		if rec["request_id"] != rid {
			t.Errorf("job record %q lost the request ID: got %v", rec["msg"], rec["request_id"])
		}
	}
	joined := strings.Join(msgs, ",")
	for _, want := range []string{"job accepted", "job running", "mine start", "mine done", "job done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("lifecycle by job_id missing %q: %v", want, msgs)
		}
	}
	if jobRecords < 5 {
		t.Errorf("only %d records carry job_id %s", jobRecords, st.ID)
	}

	// The engine records carry the component tag threaded through context.
	foundEngine := false
	for _, rec := range logRecords(t, buf) {
		if rec["msg"] == "mine done" && rec["component"] == "engine" && rec["job_id"] == st.ID {
			foundEngine = true
		}
	}
	if !foundEngine {
		t.Error("no engine-component mine record with the job ID")
	}

	// The submit's access-log line carries the same request ID.
	foundAccess := false
	for _, rec := range logRecords(t, buf) {
		if rec["msg"] == "http request" && rec["route"] == "POST /v1/jobs" && rec["request_id"] == rid {
			foundAccess = true
		}
	}
	if !foundAccess {
		t.Error("no access-log record for the submit with the caller request ID")
	}
}

// panicMiner is a deliberately-exploding algorithm for the isolation test.
type panicMiner struct{}

func (panicMiner) Name() string        { return "panic-test" }
func (panicMiner) Description() string { return "panics immediately (test only)" }
func (panicMiner) Mine(context.Context, *dataset.Dataset, engine.Config) (engine.Result, error) {
	panic("deliberate test panic")
}
func (panicMiner) CanonicalKey(engine.Config) string { return "panic-test|v1" }

var registerPanicMiner = sync.OnceFunc(func() { engine.Register(panicMiner{}) })

// TestJobPanicIsolation: a panicking mine becomes one failed job — stack
// logged, counter bumped — and the server keeps serving.
func TestJobPanicIsolation(t *testing.T) {
	registerPanicMiner()
	s, c, buf := newLoggedServer(t, Options{Workers: 2})
	dsID := c.register(heavyCSV(100, 2))

	st, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"algorithm": "panic-test"},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	final := c.waitState(st.ID, JobFailed, 10*time.Second)
	if final.State != JobFailed || !strings.Contains(final.Error, "panicked") {
		t.Fatalf("panicking job: state=%s err=%q", final.State, final.Error)
	}
	if got := s.JobPanics(); got != 1 {
		t.Fatalf("JobPanics() = %d, want 1", got)
	}
	waitLog(t, buf, "job panicked")
	logs := buf.String()
	if !strings.Contains(logs, "deliberate test panic") || !strings.Contains(logs, "logging_test.go") {
		t.Fatalf("panic log missing message or stack:\n%s", logs)
	}

	// The server survives: liveness green, and a normal job still completes
	// on the same worker pool.
	if code, _ := c.do("GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", code)
	}
	st2, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"max_depth": 2},
	})
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit: %d %s", code, body)
	}
	if got := c.waitState(st2.ID, JobDone, 20*time.Second); got.State != JobDone {
		t.Fatalf("post-panic job: %s (%s)", got.State, got.Error)
	}
}

// TestPrometheusExposition: the scrape passes the strict parser and
// carries the serve, RED, miner and runtime series; the per-algorithm
// miner families equal the one executed job's snapshot; /v1/metrics
// stays JSON whatever the query, and the retired alias routes are gone.
func TestPrometheusExposition(t *testing.T) {
	s, c, _ := newLoggedServer(t, Options{Workers: 2})
	dsID := c.register(heavyCSV(200, 3))
	st, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"max_depth": 2},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	c.waitState(st.ID, JobDone, 20*time.Second)
	// A second identical submit exercises the result cache counter.
	st2, _, _ := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"max_depth": 2},
	})
	c.waitState(st2.ID, JobDone, 10*time.Second)

	job, ok := s.Manager().Job(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	out, _, _ := job.Output()
	snap := out.Metrics
	var contrasts int64
	for _, lv := range snap.Levels {
		contrasts += lv.Contrasts
	}

	code, page := c.do("GET", "/metrics/prometheus", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics/prometheus: %d", code)
	}
	if err := obs.LintExposition(page); err != nil {
		t.Fatalf("scrape fails strict parse: %v\n%s", err, page)
	}
	text := string(page)
	var wants []string
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		wants = append(wants, fmt.Sprintf("sdadcs_miner_%s_total{algorithm=\"sdadcs\"} %d\n", c, snap.Counter(c)))
	}
	for _, want := range append(wants,
		"sdadcs_serve_ready 1",
		"sdadcs_serve_jobs_submitted_total",
		"sdadcs_serve_queue_wait_seconds_bucket",
		"sdadcs_serve_queue_wait_seconds_count",
		"sdadcs_serve_result_cache_hits_total 1",
		"sdadcs_serve_index_builds_total 1",
		"sdadcs_serve_job_panics_total",
		`sdadcs_miner_jobs_total{algorithm="sdadcs"} 1`,
		fmt.Sprintf(`sdadcs_miner_contrasts_total{algorithm="sdadcs"} %d`+"\n", contrasts),
		fmt.Sprintf(`sdadcs_miner_prune_hits_total{algorithm="sdadcs",rule="min_deviation"} %d`+"\n", snap.PruneHits(metrics.PruneMinDeviation)),
		`sdadcs_miner_level_nodes_total{algorithm="sdadcs",level="2"}`,
		`sdadcs_http_requests_total{route="POST /v1/jobs"}`,
		`sdadcs_http_request_duration_seconds_bucket{route="POST /v1/jobs"`,
		"sdadcs_http_in_flight 1", // the scrape itself
		"go_goroutines",
	) {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(text, "sdadcs_miner_pruned_total") {
		t.Error("scrape still carries the retired sdadcs_miner_pruned_total")
	}

	// The aliases and the ?format= switch are gone: the old Prometheus
	// routes are 404s, and /v1/metrics answers JSON whatever the query.
	for _, path := range []string{"/v1/metrics/prometheus", "/metrics"} {
		if code, _ := c.do("GET", path, nil); code != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", path, code)
		}
	}
	for _, path := range []string{"/v1/metrics?format=prometheus", "/v1/metrics?format=yaml"} {
		code, body := c.do("GET", path, nil)
		var m ServerMetrics
		if code != http.StatusOK || json.Unmarshal(body, &m) != nil {
			t.Errorf("%s: %d %s, want the JSON metrics", path, code, body)
		}
	}

	// Content type and JSON compatibility.
	resp, err := http.Get(c.base + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	code, jsonBody := c.do("GET", "/v1/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/metrics: %d", code)
	}
	var m ServerMetrics
	if err := json.Unmarshal(jsonBody, &m); err != nil {
		t.Fatalf("JSON metrics no longer decode: %v", err)
	}
	if m.JobsSubmitted != 2 || m.CacheHits != 1 {
		t.Fatalf("JSON counters: %+v", m)
	}
}

// TestMinerTotalsConcurrent: executions folding into the per-algorithm
// totals race scrapes rendering them, and the totals stay exact.
func TestMinerTotalsConcurrent(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	m := s.Manager()
	rec := metrics.New()
	rec.Add(metrics.SDADCalls, 3)
	rec.PruneHit(metrics.PruneLookupTable)
	rec.LevelObserve(1, 5, 2, 1, 1, time.Millisecond)
	rec.NodeEval(1, time.Microsecond)
	snap := rec.Snapshot()
	const goroutines, runs = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				m.observeMine("sdadcs", snap, time.Millisecond)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				m.minerFamilies()
			}
		}()
	}
	wg.Wait()
	var buf strings.Builder
	if err := obs.WriteExposition(&buf, m.minerFamilies()); err != nil {
		t.Fatal(err)
	}
	const n = goroutines * runs
	for _, want := range []string{
		fmt.Sprintf(`sdadcs_miner_jobs_total{algorithm="sdadcs"} %d`, n),
		fmt.Sprintf(`sdadcs_miner_%s_total{algorithm="sdadcs"} %d`, metrics.SDADCalls, 3*n),
		fmt.Sprintf(`sdadcs_miner_prune_hits_total{algorithm="sdadcs",rule="lookup_table"} %d`, n),
		fmt.Sprintf(`sdadcs_miner_node_eval_seconds_count{algorithm="sdadcs"} %d`, n),
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("totals missing %q:\n%s", want, buf.String())
		}
	}
}

// TestReadinessGate: StartDrain flips /readyz to 503 while /healthz stays
// 200 and admissions continue — the LB propagation window — and Ready()
// mirrors the endpoint.
func TestReadinessGate(t *testing.T) {
	s, c, _ := newLoggedServer(t, Options{Workers: 1})
	dsID := c.register(heavyCSV(100, 2))

	if code, _ := c.do("GET", "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	s.StartDrain()
	if s.Ready() {
		t.Fatal("Ready() true after StartDrain")
	}
	if code, body := c.do("GET", "/readyz", nil); code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz after StartDrain: %d %s", code, body)
	}
	if code, _ := c.do("GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after StartDrain: %d", code)
	}
	// The drain window: new submissions are still accepted until Close.
	st, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"max_depth": 2},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit during drain window: %d %s", code, body)
	}
	if got := c.waitState(st.ID, JobDone, 20*time.Second); got.State != JobDone {
		t.Fatalf("drain-window job: %s (%s)", got.State, got.Error)
	}
}

// TestPprofGating: the profiling surface exists only with EnablePprof.
func TestPprofGating(t *testing.T) {
	_, plain := newTestServer(t, Options{Workers: 1})
	if code, _ := plain.do("GET", "/debug/pprof/", nil); code != http.StatusNotFound {
		t.Fatalf("pprof without flag: %d, want 404", code)
	}
	_, enabled := newTestServer(t, Options{Workers: 1, EnablePprof: true})
	code, body := enabled.do("GET", "/debug/pprof/", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: %d %s", code, body)
	}
	if code, _ := enabled.do("GET", "/debug/pprof/cmdline", nil); code != http.StatusOK {
		t.Fatalf("pprof cmdline: %d", code)
	}
}

// TestRegistryAndCacheLogging: registration and eviction emit structured
// records with dataset IDs.
func TestRegistryAndCacheLogging(t *testing.T) {
	_, c, buf := newLoggedServer(t, Options{Workers: 1, RowBudget: 250})
	id1 := c.register(heavyCSV(200, 2))
	waitLog(t, buf, "dataset registered")
	// Second registration exceeds the 250-row budget and evicts the first.
	c.register(heavyCSV(201, 2))
	waitLog(t, buf, "dataset evicted")
	if !strings.Contains(buf.String(), fmt.Sprintf(`"dataset_id":%q`, id1)) {
		t.Fatalf("eviction log lacks dataset_id %s:\n%s", id1, buf.String())
	}
}
