package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdadcs/internal/metrics"
)

func wrap(t *testing.T, log *bytes.Buffer, h http.HandlerFunc) (*HTTPMetrics, http.Handler) {
	t.Helper()
	logger, err := (Config{Format: "json", Output: log}).NewLogger()
	if err != nil {
		t.Fatal(err)
	}
	m := NewHTTPMetrics()
	mw := &Middleware{Log: logger, Metrics: m}
	return m, mw.Wrap("GET /test", h)
}

func TestMiddlewareCountsAndLogs(t *testing.T) {
	var logBuf bytes.Buffer
	m, h := wrap(t, &logBuf, func(w http.ResponseWriter, r *http.Request) {
		if RequestID(r.Context()) == "" {
			t.Error("handler context has no request ID")
		}
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte("nope"))
	})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/test", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status %d", rr.Code)
	}
	rid := rr.Header().Get("X-Request-Id")
	if !strings.HasPrefix(rid, "req_") {
		t.Fatalf("minted request ID %q", rid)
	}

	snaps := m.Snapshot()
	if len(snaps) != 1 || snaps[0].Route != "GET /test" {
		t.Fatalf("snapshot: %+v", snaps)
	}
	s := snaps[0]
	if s.Requests != 1 || s.Errors != 0 || s.Classes[4] != 1 || s.Latency.Count != 1 {
		t.Fatalf("RED state: %+v", s)
	}

	var rec map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("access log not JSON: %v\n%s", err, logBuf.String())
	}
	if rec["msg"] != "http request" || rec["request_id"] != rid ||
		rec["route"] != "GET /test" || rec["status"] != float64(404) ||
		rec["bytes"] != float64(4) {
		t.Fatalf("access log record: %v", rec)
	}
}

func TestMiddlewareAdoptsCallerRequestID(t *testing.T) {
	var logBuf bytes.Buffer
	_, h := wrap(t, &logBuf, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	req := httptest.NewRequest("GET", "/test", nil)
	req.Header.Set("X-Request-Id", "req_caller01")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get("X-Request-Id"); got != "req_caller01" {
		t.Fatalf("caller ID not adopted: %q", got)
	}
	if !strings.Contains(logBuf.String(), "req_caller01") {
		t.Fatalf("access log lost caller ID: %s", logBuf.String())
	}
}

func TestMiddlewareRecoversPanic(t *testing.T) {
	var logBuf bytes.Buffer
	m, h := wrap(t, &logBuf, func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/test", nil)) // must not propagate
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic status %d, want 500", rr.Code)
	}
	if m.Panics() != 1 {
		t.Fatalf("panics counter %d", m.Panics())
	}
	s := m.Snapshot()[0]
	if s.Errors != 1 || s.Classes[5] != 1 {
		t.Fatalf("panic not counted as 5xx: %+v", s)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "handler panic") || !strings.Contains(logs, "handler exploded") ||
		!strings.Contains(logs, "red_test.go") {
		t.Fatalf("panic log missing message or stack: %s", logs)
	}
}

func TestMiddlewareInFlight(t *testing.T) {
	var logBuf bytes.Buffer
	entered := make(chan struct{})
	release := make(chan struct{})
	m, h := wrap(t, &logBuf, func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/test", nil))
		close(done)
	}()
	<-entered
	if m.InFlight() != 1 {
		t.Fatalf("in-flight %d, want 1", m.InFlight())
	}
	close(release)
	<-done
	if m.InFlight() != 0 {
		t.Fatalf("in-flight %d after completion", m.InFlight())
	}
}

func TestREDFamiliesLint(t *testing.T) {
	var logBuf bytes.Buffer
	m, h := wrap(t, &logBuf, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		w.Write([]byte("ok"))
	})
	for i := 0; i < 3; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/test", nil))
	}
	var buf bytes.Buffer
	if err := WriteExposition(&buf, REDFamilies("t_http_", m)); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("RED exposition fails strict parse: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`t_http_requests_total{route="GET /test"} 3`,
		`t_http_responses_total{route="GET /test",code="2xx"} 3`,
		"t_http_request_duration_seconds_bucket",
		"t_http_in_flight 0",
		"t_http_panics_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RED exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRuntimeAndMinerFamiliesLint(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, RuntimeFamilies()); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("runtime exposition fails strict parse: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "go_goroutines") {
		t.Fatalf("runtime exposition missing go_goroutines:\n%s", buf.String())
	}

	// A populated, algorithm-labeled exposition, as cmd/serve renders its
	// per-algorithm totals: the labeled prune, level and histogram
	// families must lint too.
	// The second series has the same counters but no prune or level
	// samples, so those families carry one algorithm only.
	snap := goldenSnapshot(t)
	var flat metrics.Snapshot
	flat.Merge(snap)
	flat.Prune, flat.Levels = nil, nil
	buf.Reset()
	fams := MinerFamilies("t_miner_",
		MinerSeries{Labels: []Label{{Name: "algorithm", Value: "sdadcs"}}, Snapshot: snap},
		MinerSeries{Labels: []Label{{Name: "algorithm", Value: "stucco"}}, Snapshot: flat},
	)
	if err := WriteExposition(&buf, fams); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("labeled miner exposition fails strict parse: %v\n%s", err, buf.String())
	}
	var wants []string
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		for _, alg := range []string{"sdadcs", "stucco"} {
			wants = append(wants, fmt.Sprintf("t_miner_%s_total{algorithm=%q} %d\n", c, alg, snap.Counter(c)))
		}
	}
	for _, want := range append(wants,
		`t_miner_prune_hits_total{algorithm="sdadcs",rule="optimistic_estimate"} 7`,
		`t_miner_level_nodes_total{algorithm="sdadcs",level="2"} 200`,
		`t_miner_node_eval_seconds_count{algorithm="stucco"} 3`,
		`t_miner_node_eval_seconds_bucket{algorithm="sdadcs",le="+Inf"} 3`,
	) {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("labeled miner exposition missing %q:\n%s", want, buf.String())
		}
	}
	if strings.Contains(buf.String(), "prune_hits_total{rule=") {
		t.Error("a rule sample without its algorithm label")
	}

	// A nil recorder's snapshot has no prune or level samples; its
	// exposition still lints. No series renders nothing.
	buf.Reset()
	if err := WriteExposition(&buf, MinerFamilies("t_miner_", MinerSeries{})); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("empty miner exposition fails strict parse: %v\n%s", err, buf.String())
	}
	if fams := MinerFamilies("t_miner_"); fams != nil {
		t.Errorf("no series rendered %d families", len(fams))
	}
}
