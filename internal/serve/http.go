package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/obs"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// RegisterRequest is the POST /v1/datasets body.
type RegisterRequest struct {
	// Name is the display name (optional).
	Name string `json:"name,omitempty"`
	// GroupColumn names the CSV column holding the group labels (required).
	GroupColumn string `json:"group_column"`
	// ForceCategorical lists columns to treat as categorical even when
	// every value parses as a number.
	ForceCategorical []string `json:"force_categorical,omitempty"`
	// CSV is the raw CSV text, header row included.
	CSV string `json:"csv"`
}

// ConfigRequest is the JSON mining configuration accepted by POST
// /v1/jobs. Zero/absent fields select the paper's defaults, mirroring
// engine.Config's zero value.
type ConfigRequest struct {
	// Algorithm selects the miner: sdadcs (default) | stucco | mvd |
	// entropy | subgroup — the engine registry's vocabulary.
	Algorithm    string  `json:"algorithm,omitempty"`
	Alpha        float64 `json:"alpha,omitempty"`
	Delta        float64 `json:"delta,omitempty"`
	MaxDepth     int     `json:"max_depth,omitempty"`
	MaxRecursion int     `json:"max_recursion,omitempty"`
	TopK         int     `json:"top_k,omitempty"`
	// Measure: diff | pr | surprising | wracc | growth | contrast-rules
	// (default diff) — the pattern measure registry's wire names.
	Measure string `json:"measure,omitempty"`
	// OEMode: paper | conservative (default paper).
	OEMode  string `json:"oe_mode,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// NP selects the no-pruning paper variant (core.Config.NP).
	NP bool `json:"np,omitempty"`
	// SkipMeaningfulFilter disables the final meaningfulness filter.
	SkipMeaningfulFilter bool `json:"skip_meaningful_filter,omitempty"`
	// Attrs restricts mining to these attribute names (resolved against
	// the dataset's schema).
	Attrs []string `json:"attrs,omitempty"`

	// Subgroup-discovery knobs (algorithm: subgroup).
	BeamWidth   int     `json:"beam_width,omitempty"`
	Bins        int     `json:"bins,omitempty"`
	MinCoverage int     `json:"min_coverage,omitempty"`
	MinQuality  float64 `json:"min_quality,omitempty"`

	// MVD discretization knobs (algorithm: mvd).
	BinSize   int `json:"bin_size,omitempty"`
	MaxSweeps int `json:"max_sweeps,omitempty"`
}

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	DatasetID string        `json:"dataset_id"`
	Config    ConfigRequest `json:"config"`
	// TimeoutMS caps the mine's wall time (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// toConfig resolves the wire configuration against a dataset schema.
// Vocabulary failures (measure, oe_mode, attrs) are typed
// *core.FieldErrors so the error envelope names the offending field; the
// engine's own Validate covers everything numeric.
func (cr ConfigRequest) toConfig(d *dataset.Dataset) (engine.Config, error) {
	cfg := engine.Config{
		Algorithm:            cr.Algorithm,
		Alpha:                cr.Alpha,
		Delta:                cr.Delta,
		MaxDepth:             cr.MaxDepth,
		MaxRecursion:         cr.MaxRecursion,
		TopK:                 cr.TopK,
		Workers:              cr.Workers,
		NP:                   cr.NP,
		SkipMeaningfulFilter: cr.SkipMeaningfulFilter,
		BeamWidth:            cr.BeamWidth,
		Bins:                 cr.Bins,
		MinCoverage:          cr.MinCoverage,
		MinQuality:           cr.MinQuality,
		BinSize:              cr.BinSize,
		MaxSweeps:            cr.MaxSweeps,
	}
	if cr.Measure == "" {
		cfg.Measure = pattern.SupportDiff
	} else {
		m, ok := pattern.MeasureByName(cr.Measure)
		if !ok {
			return cfg, &core.FieldError{Field: "measure", Value: cr.Measure,
				Reason: "unknown measure; one of " + strings.Join(pattern.MeasureNames(), ", ")}
		}
		cfg.Measure = m
	}
	switch cr.OEMode {
	case "", "paper":
		cfg.OEMode = core.OEModePaper
	case "conservative":
		cfg.OEMode = core.OEModeConservative
	default:
		return cfg, &core.FieldError{Field: "oe_mode", Value: cr.OEMode,
			Reason: "unknown oe_mode; paper or conservative"}
	}
	for _, name := range cr.Attrs {
		idx := d.AttrIndex(name)
		if idx < 0 {
			return cfg, &core.FieldError{Field: "attrs", Value: name,
				Reason: "unknown attribute"}
		}
		cfg.Attrs = append(cfg.Attrs, idx)
	}
	return cfg, nil
}

// errorBody is the JSON error envelope; Fields carries one entry per
// invalid configuration field when the failure was a validation error.
type errorBody struct {
	Error  string   `json:"error"`
	Fields []string `json:"fields,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error()}
	// A config validation failure is errors.Join-ed *core.FieldError
	// values; surface each field on its own line for the client.
	var joined interface{ Unwrap() []error }
	if errors.As(err, &joined) {
		for _, e := range joined.Unwrap() {
			var fe *core.FieldError
			if errors.As(e, &fe) {
				body.Fields = append(body.Fields, fe.Field)
			}
		}
	} else {
		var fe *core.FieldError
		if errors.As(err, &fe) {
			body.Fields = append(body.Fields, fe.Field)
		}
	}
	writeJSON(w, status, body)
}

// Handler mounts the full v1 API:
//
//	GET    /healthz                   liveness (always 200 while the process serves)
//	GET    /readyz                    readiness (503 once draining)
//	POST   /v1/datasets               register a CSV (content-hash addressed)
//	GET    /v1/datasets               list registered datasets
//	GET    /v1/datasets/{id}          one dataset's info
//	POST   /v1/jobs                   submit a mine (202; 400/404/429/503)
//	GET    /v1/jobs                   list jobs
//	GET    /v1/jobs/{id}              job status + live progress
//	DELETE /v1/jobs/{id}              cancel a job
//	GET    /v1/jobs/{id}/result       deterministic report JSON (409 until done)
//	GET    /v1/jobs/{id}/trace        decision trace as JSON Lines (409/410 until done; replayed on first read)
//	GET    /v1/jobs/{id}/explain?key= pattern provenance (core.Explain; 409/410 until done)
//	GET    /v1/metrics                serve counters + live mining snapshots (JSON)
//	GET    /metrics/prometheus        the same read as Prometheus text exposition
//	/debug/pprof/...                  profiling (only with Options.EnablePprof)
//
// Every route is wrapped in the RED middleware: request/error counters and
// latency histograms per route pattern, one access-log line per request
// carrying the request correlation ID, and panic recovery into logged 500s.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mw := &obs.Middleware{Log: s.log.With("component", "serve.http"), Metrics: s.httpm}
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, mw.Wrap(pattern, h))
	}
	handle("GET /healthz", s.handleHealth)
	handle("GET /readyz", s.handleReady)
	handle("POST /v1/datasets", s.handleRegister)
	handle("GET /v1/datasets", s.handleListDatasets)
	handle("GET /v1/datasets/{id}", s.handleGetDataset)
	handle("POST /v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", s.handleListJobs)
	handle("GET /v1/jobs/{id}", s.handleGetJob)
	handle("DELETE /v1/jobs/{id}", s.handleCancelJob)
	handle("GET /v1/jobs/{id}/result", s.handleResult)
	handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	handle("GET /v1/jobs/{id}/explain", s.handleExplain)
	handle("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	handle("GET /metrics/prometheus", obs.PrometheusHandler(mw.Log, func() []obs.Family {
		return s.promFamilies(s.Metrics())
	}))
	if s.opts.EnablePprof {
		// One route label for the whole profiling surface, so scraping
		// different profiles does not mint new metric series.
		handle("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/debug/pprof/cmdline":
				pprof.Cmdline(w, r)
			case "/debug/pprof/profile":
				pprof.Profile(w, r)
			case "/debug/pprof/symbol":
				pprof.Symbol(w, r)
			case "/debug/pprof/trace":
				pprof.Trace(w, r)
			default:
				pprof.Index(w, r)
			}
		})
	}
	return mux
}

// handleHealth is pure liveness: 200 as long as the process can serve,
// draining included — restart decisions should not trigger on a graceful
// shutdown. The drain state is reported in the body and gates /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if !s.Ready() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"uptime_ns": int64(time.Since(s.start)),
	})
}

// handleReady is the routing gate: 503 the moment StartDrain (or Close)
// ran, so load balancers stop sending new traffic while in-flight work
// completes behind the still-green /healthz.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.GroupColumn == "" {
		writeError(w, http.StatusBadRequest, errors.New("group_column is required"))
		return
	}
	if req.CSV == "" {
		writeError(w, http.StatusBadRequest, errors.New("csv is required"))
		return
	}
	info, err := s.reg.Register(req.Name, []byte(req.CSV), req.GroupColumn, req.ForceCategorical)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	_, info, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownDataset)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	d, _, ok := s.reg.Get(req.DatasetID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownDataset, req.DatasetID))
		return
	}
	cfg, err := req.Config.toConfig(d)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.mgr.Submit(r.Context(), req.DatasetID, cfg, time.Duration(req.TimeoutMS)*time.Millisecond)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrUnknownDataset):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil: // config validation
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.mgr.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownJob, r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j, _ = s.mgr.Cancel(j.ID)
	writeJSON(w, http.StatusOK, j.Status())
}

// doneJob resolves the path's job and its output. A job that is not done
// answers 409 with Retry-After while pending or running, and 410 once
// failed or canceled.
func (s *Server) doneJob(w http.ResponseWriter, r *http.Request) (*Job, *mineOutput, bool) {
	j, ok := s.job(w, r)
	if !ok {
		return nil, nil, false
	}
	out, state, err := j.Output()
	switch state {
	case JobDone:
		return j, out, true
	case JobFailed, JobCanceled:
		writeJSON(w, http.StatusGone, errorBody{
			Error: fmt.Sprintf("job %s: %s (%v)", j.ID, state, err),
		})
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job %s still %s", j.ID, state),
		})
	}
	return nil, nil, false
}

// jobTrace returns a done job's decision trace, replaying the job on
// first read. A replay cut short by the request or the job's timeout
// answers 503; a failed or mismatched one 500.
func (s *Server) jobTrace(w http.ResponseWriter, r *http.Request, j *Job, out *mineOutput) (*trace.Trace, bool) {
	tr, err := s.mgr.traceOf(r.Context(), j, out)
	switch {
	case err == nil:
		return tr, true
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("replaying job %s for its trace: %w", j.ID, err))
	default:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("replaying job %s for its trace: %w", j.ID, err))
	}
	return nil, false
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if _, out, ok := s.doneJob(w, r); ok {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out.JSON)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, out, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	tr, ok := s.jobTrace(w, r, j, out)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = trace.WriteJSONL(w, tr)
}

// explainResponse is the /explain payload.
type explainResponse struct {
	Key     string `json:"key"`
	Verdict string `json:"verdict"`
	Events  int    `json:"events"`
	Subset  int    `json:"subset_events,omitempty"`
	// Dropped is the number of events the job's trace dropped on
	// overflow; when it is set, the verdict may rest on a cut-short chain.
	Dropped uint64 `json:"dropped_events,omitempty"`
	// Text is Explanation.Format's human rendering (attribute names
	// resolved against the dataset).
	Text string `json:"text"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	j, out, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, errors.New("query parameter key is required"))
		return
	}
	set, err := pattern.ParseKey(key)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing key: %w", err))
		return
	}
	// A key that does not fit the dataset is refused before it costs a
	// replay.
	if err := keyFits(key, set, j.Dataset()); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tr, ok := s.jobTrace(w, r, j, out)
	if !ok {
		return
	}
	x := core.Explain(tr, set)
	writeJSON(w, http.StatusOK, explainResponse{
		Key:     x.Key,
		Verdict: x.Verdict,
		Events:  len(x.Events),
		Subset:  len(x.Subset),
		Dropped: x.Dropped,
		Text:    strings.TrimRight(x.Format(j.Dataset()), "\n"),
	})
}

// keyFits checks a parsed explain key against the dataset it is rendered
// with: every item's attribute exists, has the item's kind, and a
// categorical item's code lies inside the attribute's domain. A failure is
// a *core.FieldError naming key.
func keyFits(key string, set pattern.Itemset, d *dataset.Dataset) error {
	for _, it := range set.Items() {
		var reason string
		switch {
		case it.Attr < 0 || it.Attr >= d.NumAttrs():
			reason = fmt.Sprintf("attribute %d out of range; the dataset has %d", it.Attr, d.NumAttrs())
		case it.Kind != d.Attr(it.Attr).Kind:
			reason = fmt.Sprintf("attribute %d is %s, the key gives a %s item", it.Attr, d.Attr(it.Attr).Kind, it.Kind)
		case it.Kind == dataset.Categorical && (it.Code < 0 || it.Code >= len(d.Domain(it.Attr))):
			reason = fmt.Sprintf("code %d outside attribute %d's domain of %d values", it.Code, it.Attr, len(d.Domain(it.Attr)))
		default:
			continue
		}
		return &core.FieldError{Field: "key", Value: key, Reason: reason}
	}
	return nil
}
