package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"sdadcs"
	"sdadcs/internal/metrics"
	"sdadcs/internal/obs"

	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeStreamCSV emits a replay file: normal regime, then a hot regime
// where high temperature on lane "rear" fails.
func writeStreamCSV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var b strings.Builder
	b.WriteString("temp,lane,result\n")
	emit := func(n int, hot bool) {
		for i := 0; i < n; i++ {
			temp := 100 + rng.Float64()*100
			lane := []string{"front", "rear"}[rng.Intn(2)]
			result := "pass"
			if hot && temp > 170 && lane == "rear" && rng.Float64() < 0.95 {
				result = "fail"
			} else if rng.Float64() < 0.04 {
				result = "fail"
			}
			fmt.Fprintf(&b, "%.3f,%s,%s\n", temp, lane, result)
		}
	}
	emit(1200, false)
	emit(1600, true)
	path := filepath.Join(t.TempDir(), "stream.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReplayDetectsChange(t *testing.T) {
	path := writeStreamCSV(t)
	var out, errBuf bytes.Buffer
	code := run([]string{"-input", path, "-group", "result", "-window", "800", "-every", "400"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "windows mined") {
		t.Fatalf("missing summary: %s", s)
	}
	if !strings.Contains(s, "[appeared]") {
		t.Errorf("no appearance events in replay output:\n%s", s)
	}
	if !strings.Contains(s, "temp") {
		t.Error("events do not mention the temperature attribute")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Errorf("missing flags: exit %d", code)
	}
	if code := run([]string{"-input", "/nonexistent.csv", "-group", "g"}, &out, &errBuf); code != 1 {
		t.Errorf("missing file: exit %d", code)
	}
	if code := run([]string{"-badflag"}, &out, &errBuf); code != 2 {
		t.Errorf("bad flag: exit %d", code)
	}
}

func TestRunBadGroupColumn(t *testing.T) {
	path := writeStreamCSV(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-input", path, "-group", "missing"}, &out, &errBuf); code != 1 {
		t.Errorf("bad group: exit %d", code)
	}
}

func TestRunEmptyCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(path, []byte("a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-input", path, "-group", "b"}, &out, &errBuf); code != 1 {
		t.Errorf("no data rows: exit %d", code)
	}
}

// syncBuffer is a goroutine-safe writer for capturing run's output while
// the test polls it from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
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

// writeLongStreamCSV emits a replay long enough that the metrics endpoint
// stays up for a while.
func writeLongStreamCSV(t *testing.T, rows int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var b strings.Builder
	b.WriteString("temp,lane,result\n")
	for i := 0; i < rows; i++ {
		temp := 100 + rng.Float64()*100
		lane := []string{"front", "rear"}[rng.Intn(2)]
		result := "pass"
		if temp > 170 && lane == "rear" && rng.Float64() < 0.9 {
			result = "fail"
		} else if rng.Float64() < 0.04 {
			result = "fail"
		}
		fmt.Fprintf(&b, "%.3f,%s,%s\n", temp, lane, result)
	}
	path := filepath.Join(t.TempDir(), "long.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunMetricsEndpoint replays with -metrics and queries the live
// endpoint while the replay runs; it then checks the final latency
// summary either way.
func TestRunMetricsEndpoint(t *testing.T) {
	path := writeLongStreamCSV(t, 30000)
	var out, errBuf syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-input", path, "-group", "result",
			"-window", "2000", "-every", "500",
			"-metrics", "127.0.0.1:0",
		}, &out, &errBuf)
	}()

	// Find the bound address on stderr.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		s := errBuf.String()
		if i := strings.Index(s, "http://"); i >= 0 {
			if j := strings.Index(s[i:], "/metrics"); j >= 0 {
				addr = s[i : i+j+len("/metrics")]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("metrics address never announced: %s", errBuf.String())
	}

	// Query the live endpoint while the replay is (probably) running. If
	// the replay already finished, the connection fails and we rely on
	// the summary assertions below.
	live := false
	for time.Now().Before(deadline) && !live {
		resp, err := http.Get(addr)
		if err != nil {
			break // server already closed: replay finished
		}
		var snap sdadcs.MetricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("live endpoint returned invalid snapshot JSON: %v", err)
		}
		live = true
	}
	t.Logf("live fetch succeeded: %v", live)

	code := <-done
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "re-mine latency:") {
		t.Errorf("missing latency summary:\n%s", s)
	}
}

// TestRunMetricsPrometheus: the monitor's metrics routes over a recorder
// filled by a real mine. The text exposition passes the strict parser,
// carries the miner, RED and runtime families with the recorder's exact
// counter values, and the scrape writes a JSON access-log record with a
// request ID. GET /metrics serves the same state as snapshot JSON and
// has no ?format= switch.
func TestRunMetricsPrometheus(t *testing.T) {
	f, err := os.Open(writeStreamCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := sdadcs.FromCSV(f, sdadcs.CSVOptions{GroupColumn: "result"})
	if err != nil {
		t.Fatal(err)
	}
	rec := sdadcs.NewMetricsRecorder()
	sdadcs.Mine(d, sdadcs.Config{MaxDepth: 2, Metrics: rec})
	snap := rec.Snapshot()
	if snap.SDADCalls == 0 || snap.TotalPruned() == 0 {
		t.Fatalf("mine recorded no SDAD-CS calls or prune hits: %+v", snap)
	}

	var logBuf syncBuffer
	log, err := obs.Config{Format: "json", Output: &logBuf}.NewLogger()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(metricsHandler(rec, log))
	defer srv.Close()
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return resp, body
	}

	resp, page := get("/metrics/prometheus")
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type %q, want %q", ct, obs.ContentType)
	}
	if err := obs.LintExposition(page); err != nil {
		t.Fatalf("scrape fails strict parse: %v\n%s", err, page)
	}
	var wants []string
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		wants = append(wants, fmt.Sprintf("sdadcs_miner_%s_total %d\n", c, snap.Counter(c)))
	}
	for _, want := range append(wants,
		fmt.Sprintf("sdadcs_miner_prune_hits_total{rule=\"min_deviation\"} %d\n", snap.PruneHits(metrics.PruneMinDeviation)),
		`sdadcs_miner_level_nodes_total{level="2"}`,
		"sdadcs_http_in_flight 1", // the scrape itself
		"go_goroutines",
	) {
		if !strings.Contains(string(page), want) {
			t.Errorf("scrape missing %q:\n%s", want, page)
		}
	}

	found := false
	for _, line := range strings.Split(logBuf.String(), "\n") {
		var rec map[string]any
		if line == "" || json.Unmarshal([]byte(line), &rec) != nil || rec["msg"] != "http request" {
			continue
		}
		if id, _ := rec["request_id"].(string); !strings.HasPrefix(id, "req_") || rec["component"] != "monitor.http" {
			t.Fatalf("access log without request_id or component: %s", line)
		}
		found = true
	}
	if !found {
		t.Errorf("no access-log record for the scrape: %s", logBuf.String())
	}

	for _, path := range []string{"/metrics", "/metrics?format=prometheus"} {
		_, body := get(path)
		var got sdadcs.MetricsSnapshot
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("GET %s is not snapshot JSON: %v\n%s", path, err, body)
		}
		if got.SDADCalls != snap.SDADCalls || got.TotalPruned() != snap.TotalPruned() {
			t.Errorf("GET %s: counters differ from the recorder's", path)
		}
	}
}

func TestRunBadLogFlags(t *testing.T) {
	path := writeStreamCSV(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-input", path, "-group", "result",
		"-log-level", "loud"}, &out, &errBuf); code != 2 {
		t.Errorf("bad log level: exit %d, want 2", code)
	}
}

func TestRunMetricsBadAddress(t *testing.T) {
	path := writeStreamCSV(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-input", path, "-group", "result",
		"-metrics", "256.0.0.1:bad"}, &out, &errBuf); code != 1 {
		t.Errorf("bad metrics address: exit %d, want 1 (%s)", code, errBuf.String())
	}
}

func TestRunTraceSegments(t *testing.T) {
	path := writeStreamCSV(t)
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errBuf bytes.Buffer
	code := run([]string{"-input", path, "-group", "result",
		"-window", "800", "-every", "400", "-trace", traceFile}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "trace: ") {
		t.Errorf("summary missing trace line:\n%s", out.String())
	}

	// The file is a concatenation of per-window segments; the public
	// decoder reads them as one stream, with one remine span per mined
	// window.
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := sdadcs.ReadTraceJSONL(f)
	if err != nil {
		t.Fatalf("decoding per-window segments: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no trace events written")
	}
	remines := 0
	for _, e := range tr.Events {
		if e.Kind.String() == "remine" {
			remines++
		}
	}
	rows, mined := 0, 0
	if _, err := fmt.Sscanf(out.String()[strings.Index(out.String(), "replayed"):],
		"replayed %d rows, %d windows mined", &rows, &mined); err != nil {
		t.Fatalf("parsing summary: %v\n%s", err, out.String())
	}
	if mined == 0 || remines != mined {
		t.Errorf("%d remine spans for %d mined windows", remines, mined)
	}
}
