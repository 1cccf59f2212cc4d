package obs

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdadcs/internal/metrics"
)

// RouteMetrics is the RED state of one mounted route pattern.
type RouteMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64    // 5xx responses (including recovered panics)
	classes  [6]atomic.Int64 // responses by status/100 (1xx..5xx)
	latency  metrics.Histogram
}

// observe records one finished request.
func (rm *RouteMetrics) observe(status int, d time.Duration) {
	rm.requests.Add(1)
	if status >= 500 {
		rm.errors.Add(1)
	}
	if c := status / 100; c >= 1 && c <= 5 {
		rm.classes[c].Add(1)
	}
	rm.latency.Observe(d)
}

// HTTPMetrics aggregates the RED view of one HTTP surface: per-route
// request/error counters, status-class counts and latency histograms,
// plus surface-wide in-flight and recovered-panic counters. Routes are
// registered at mount time (Route), so the request path is lock-free.
type HTTPMetrics struct {
	mu     sync.Mutex
	routes map[string]*RouteMetrics

	inFlight atomic.Int64
	panics   atomic.Int64
}

// NewHTTPMetrics builds an empty RED aggregate.
func NewHTTPMetrics() *HTTPMetrics {
	return &HTTPMetrics{routes: make(map[string]*RouteMetrics)}
}

// Route returns (creating if needed) the stats slot of a route pattern.
func (m *HTTPMetrics) Route(route string) *RouteMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm, ok := m.routes[route]
	if !ok {
		rm = &RouteMetrics{}
		m.routes[route] = rm
	}
	return rm
}

// InFlight is the number of requests currently being served.
func (m *HTTPMetrics) InFlight() int64 { return m.inFlight.Load() }

// Panics is the number of handler panics recovered into 500s.
func (m *HTTPMetrics) Panics() int64 { return m.panics.Load() }

// RouteSnapshot is one route's RED state at snapshot time.
type RouteSnapshot struct {
	Route    string
	Requests int64
	Errors   int64
	Classes  [6]int64 // index status/100; 0 unused
	Latency  metrics.HistogramSnapshot
}

// Snapshot copies every route's state, sorted by route pattern so the
// exposition order is deterministic.
func (m *HTTPMetrics) Snapshot() []RouteSnapshot {
	m.mu.Lock()
	out := make([]RouteSnapshot, 0, len(m.routes))
	for r, rm := range m.routes {
		s := RouteSnapshot{
			Route:    r,
			Requests: rm.requests.Load(),
			Errors:   rm.errors.Load(),
			Latency:  rm.latency.Snapshot(),
		}
		for c := 1; c <= 5; c++ {
			s.Classes[c] = rm.classes[c].Load()
		}
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Route < out[j].Route })
	return out
}

// REDFamilies renders the RED aggregate as exposition families under the
// given metric-name prefix ("sdadcs_http_"): requests/errors/responses
// counters, per-route latency histograms, the in-flight gauge and the
// recovered-panics counter.
func REDFamilies(prefix string, m *HTTPMetrics) []Family {
	snaps := m.Snapshot()
	req := Family{Name: prefix + "requests_total", Help: "HTTP requests served, by route.", Type: TypeCounter}
	errs := Family{Name: prefix + "errors_total", Help: "HTTP 5xx responses (including recovered panics), by route.", Type: TypeCounter}
	resp := Family{Name: prefix + "responses_total", Help: "HTTP responses by route and status class.", Type: TypeCounter}
	dur := Family{Name: prefix + "request_duration_seconds", Help: "HTTP request latency, by route.", Type: TypeHistogram}
	for _, s := range snaps {
		route := []Label{{Name: "route", Value: s.Route}}
		req.Samples = append(req.Samples, Sample{Labels: route, Value: float64(s.Requests)})
		errs.Samples = append(errs.Samples, Sample{Labels: route, Value: float64(s.Errors)})
		for c := 1; c <= 5; c++ {
			if s.Classes[c] == 0 {
				continue
			}
			resp.Samples = append(resp.Samples, Sample{
				Labels: []Label{{Name: "route", Value: s.Route}, {Name: "code", Value: fmt.Sprintf("%dxx", c)}},
				Value:  float64(s.Classes[c]),
			})
		}
		dur.Samples = append(dur.Samples, HistogramSamples(route, s.Latency)...)
	}
	fams := make([]Family, 0, 6)
	if len(req.Samples) > 0 {
		fams = append(fams, req, errs)
	}
	if len(resp.Samples) > 0 {
		fams = append(fams, resp)
	}
	if len(dur.Samples) > 0 {
		fams = append(fams, dur)
	}
	fams = append(fams,
		Gauge(prefix+"in_flight", "HTTP requests currently being served.", float64(m.InFlight())),
		Counter(prefix+"panics_total", "Handler panics recovered into 500 responses.", float64(m.Panics())),
	)
	return fams
}

// statusWriter captures the response status and size, delegating Flush
// so streaming handlers (trace export) keep working.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Middleware is the RED wrapper mounted around every route of a service
// mux: it assigns (or adopts) the request correlation ID, counts and
// times the request, emits one access-log line, and converts handler
// panics into logged 500s instead of process death.
type Middleware struct {
	// Log receives access-log and panic records (component-scoped by the
	// caller); nil disables logging but keeps metrics and recovery.
	Log *slog.Logger
	// Metrics receives the RED counters; required.
	Metrics *HTTPMetrics
}

// Wrap instruments one route pattern. The pattern is the metric label —
// path parameters stay templated ("GET /v1/jobs/{id}"), so cardinality
// is bounded by the mux, not by traffic.
func (mw *Middleware) Wrap(route string, next http.Handler) http.Handler {
	rm := mw.Metrics.Route(route)
	log := Or(mw.Log)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = NewID("req")
		}
		ctx := WithRequestID(r.Context(), rid)
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-Id", rid)

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mw.Metrics.inFlight.Add(1)
		defer func() {
			d := time.Since(start)
			mw.Metrics.inFlight.Add(-1)
			if p := recover(); p != nil {
				mw.Metrics.panics.Add(1)
				log.ErrorContext(ctx, "handler panic",
					"route", route,
					"method", r.Method,
					"path", r.URL.Path,
					"panic", fmt.Sprint(p),
					"stack", string(debug.Stack()))
				if !sw.wrote {
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				} else if sw.status < 500 {
					// Headers already sent with a success status; the
					// connection is poisoned but the books should say 500.
					sw.status = http.StatusInternalServerError
				}
			}
			if !sw.wrote {
				sw.status = http.StatusOK
			}
			rm.observe(sw.status, d)
			log.InfoContext(ctx, "http request",
				"route", route,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"bytes", sw.bytes,
				"duration_ms", float64(d)/1e6)
		}()
		next.ServeHTTP(sw, r)
	})
}
