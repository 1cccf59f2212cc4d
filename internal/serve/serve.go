package serve

import (
	"log/slog"
	"runtime"
	"sync/atomic"
	"time"

	"sdadcs/internal/metrics"
	"sdadcs/internal/obs"
	"sdadcs/internal/store"
)

// Options sizes the service. The zero value is usable.
type Options struct {
	// Workers is the mining worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-job queue; a full queue turns new
	// submissions into 429s (default 64).
	QueueDepth int
	// RowBudget bounds the dataset registry by total registered rows;
	// least-recently-used unpinned datasets are evicted past it
	// (default 0 = unbounded).
	RowBudget int
	// CacheEntries bounds the result cache (default 128).
	CacheEntries int
	// DefaultTimeout applies to jobs that carry no deadline of their own
	// (default 5m; set negative for none).
	DefaultTimeout time.Duration
	// MaxUploadBytes bounds a dataset registration body (default 64 MiB).
	MaxUploadBytes int64
	// Logger receives the structured service log (access lines, job
	// lifecycle, registry events); nil disables logging. Component
	// scoping and request/job correlation IDs are added by the server.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// handler (default off: profiling endpoints are operator surface).
	EnablePprof bool
	// Store is the optional persistence backend (cmd/serve -data-dir):
	// registrations are written through to it, the registry rehydrates
	// from it at boot, and LRU eviction demotes datasets to its cold
	// on-disk tier instead of dropping them. Nil keeps the fully
	// in-memory behavior unchanged.
	Store *store.Store
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 128
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	if o.DefaultTimeout < 0 {
		o.DefaultTimeout = 0
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 64 << 20
	}
}

// counters is the serve-level operational state behind /v1/metrics.
type counters struct {
	jobsSubmitted  atomic.Int64
	jobsDone       atomic.Int64
	jobsFailed     atomic.Int64
	jobsCanceled   atomic.Int64
	jobsRunning    atomic.Int64
	jobPanics      atomic.Int64
	mineExecutions atomic.Int64
	cacheHits      atomic.Int64
	dedupHits      atomic.Int64
	// traceReplays counts re-mines run to serve a job's trace;
	// traceReplayMismatches those that rendered a different result.
	traceReplays          atomic.Int64
	traceReplayMismatches atomic.Int64
}

// ServerMetrics is the /v1/metrics payload: serve-level counters plus one
// internal/metrics snapshot per running job (the same JSON shape
// cmd/monitor -metrics serves). The JSON shape is a compatibility
// surface — new series land in the Prometheus exposition
// (/metrics/prometheus), not here. Both encode one Metrics read.
type ServerMetrics struct {
	UptimeNanos        int64 `json:"uptime_ns"`
	DatasetsRegistered int   `json:"datasets_registered"`
	DatasetRows        int   `json:"dataset_rows"`
	DatasetEvictions   int64 `json:"dataset_evictions"`
	JobsSubmitted      int64 `json:"jobs_submitted"`
	JobsDone           int64 `json:"jobs_done"`
	JobsFailed         int64 `json:"jobs_failed"`
	JobsCanceled       int64 `json:"jobs_canceled"`
	JobsRunning        int64 `json:"jobs_running"`
	// IndexBuilds counts bitmap-index constructions across all datasets
	// ever registered (live and evicted); IndexCached is how many live
	// datasets currently hold a built index; IndexEvictions counts indexes
	// dropped by registry LRU eviction. Builds staying at one per dataset
	// hash while jobs repeat is the cached-index reuse guarantee.
	IndexBuilds        int64 `json:"index_builds"`
	IndexCached        int   `json:"index_cached"`
	IndexEvictions     int64 `json:"index_evictions"`
	QueueDepth         int   `json:"queue_depth"`
	QueueCapacity      int   `json:"queue_capacity"`
	MineExecutions     int64 `json:"mine_executions"`
	CacheHits          int64 `json:"cache_hits"`
	DedupHits          int64 `json:"dedup_hits"`
	ResultCacheEntries int   `json:"result_cache_entries"`
	// Ready, JobPanics, ResultCacheEvictions and the trace replay
	// counters reach only the Prometheus exposition; they stay out of the
	// JSON to keep it byte-compatible.
	Ready                 bool  `json:"-"`
	JobPanics             int64 `json:"-"`
	ResultCacheEvictions  int64 `json:"-"`
	TraceReplays          int64 `json:"-"`
	TraceReplayMismatches int64 `json:"-"`
	// Store reports the persistence backend's durability counters and the
	// registry's cold-tier lifecycle. Omitted entirely when the server has
	// no store attached, keeping the no-persistence JSON byte-compatible.
	Store *StoreHealth `json:"store,omitempty"`
	// Active maps running job IDs to their live mining snapshots.
	Active map[string]metrics.Snapshot `json:"active,omitempty"`
}

// StoreHealth is the persistence slice of ServerMetrics: the store's WAL,
// checkpoint, recovery and corruption counters plus the registry's
// cold-tier demotion/promotion lifecycle.
type StoreHealth struct {
	WALAppends      uint64 `json:"store_wal_appends_total"`
	WALFsyncs       uint64 `json:"store_wal_fsyncs_total"`
	Checkpoints     uint64 `json:"store_checkpoints_total"`
	Recoveries      uint64 `json:"store_recoveries_total"`
	ColdLoads       uint64 `json:"store_cold_loads_total"`
	CorruptSegments uint64 `json:"store_corrupt_segments_total"`
	DatasetsOnDisk  int    `json:"store_datasets_on_disk"`
	ColdDatasets    int    `json:"cold_datasets"`
	Demotions       int64  `json:"cold_demotions_total"`
	Promotions      int64  `json:"cold_promotions_total"`
}

// Server ties the registry, job manager and result cache together behind
// the HTTP API. Build with New, mount Handler, stop with Close.
type Server struct {
	opts     Options
	log      *slog.Logger
	reg      *Registry
	cache    *resultCache
	mgr      *Manager
	counters *counters
	httpm    *obs.HTTPMetrics
	start    time.Time
	// ready gates /readyz: flipped false by StartDrain (and Close) so
	// load balancers stop routing before admissions actually stop.
	ready atomic.Bool
}

// New builds a serving stack.
func New(opts Options) *Server {
	opts.defaults()
	log := obs.Or(opts.Logger)
	c := &counters{}
	reg := NewRegistry(opts.RowBudget)
	reg.SetLogger(log.With("component", "serve.registry"))
	if opts.Store != nil {
		reg.SetStore(opts.Store)
	}
	cache := newResultCache(opts.CacheEntries)
	s := &Server{
		opts:     opts,
		log:      log,
		reg:      reg,
		cache:    cache,
		mgr:      newManager(reg, cache, opts.Workers, opts.QueueDepth, opts.DefaultTimeout, c, log),
		counters: c,
		httpm:    obs.NewHTTPMetrics(),
		start:    time.Now(),
	}
	s.ready.Store(true)
	return s
}

// Registry exposes the dataset registry (tests and preloading).
func (s *Server) Registry() *Registry { return s.reg }

// Manager exposes the job manager (tests and embedding).
func (s *Server) Manager() *Manager { return s.mgr }

// HTTPMetrics exposes the RED aggregate of the mounted handler.
func (s *Server) HTTPMetrics() *obs.HTTPMetrics { return s.httpm }

// JobPanics reports how many job executions panicked and were isolated
// into failed jobs.
func (s *Server) JobPanics() int64 { return s.counters.jobPanics.Load() }

// Ready reports whether the server should receive new traffic: true
// until StartDrain/Close, and only while the job manager still admits.
func (s *Server) Ready() bool {
	if !s.ready.Load() {
		return false
	}
	s.mgr.mu.Lock()
	closed := s.mgr.closed
	s.mgr.mu.Unlock()
	return !closed
}

// StartDrain flips readiness off without stopping work: /readyz turns
// 503 so load balancers stop routing, while /healthz stays green and
// in-flight (and even newly submitted) requests keep completing. Call it
// before Close, leaving the LB a propagation window. Idempotent.
func (s *Server) StartDrain() {
	if s.ready.CompareAndSwap(true, false) {
		s.log.Info("drain started: readiness gate closed", "component", "serve")
	}
}

// Close drains the server: readiness flips first, submissions stop,
// running jobs get the grace period, then their contexts are canceled;
// Close returns after every worker goroutine exited.
func (s *Server) Close(grace time.Duration) {
	s.StartDrain()
	s.mgr.Close(grace)
}

// Metrics snapshots the serve-level counters and the live mining
// snapshots of running jobs.
func (s *Server) Metrics() ServerMetrics {
	entries, rows, evictions := s.reg.Stats()
	ixCached, ixBuilds, ixEvictions := s.reg.IndexStats()
	m := ServerMetrics{
		UptimeNanos:           int64(time.Since(s.start)),
		DatasetsRegistered:    entries,
		DatasetRows:           rows,
		DatasetEvictions:      evictions,
		IndexBuilds:           ixBuilds,
		IndexCached:           ixCached,
		IndexEvictions:        ixEvictions,
		JobsSubmitted:         s.counters.jobsSubmitted.Load(),
		JobsDone:              s.counters.jobsDone.Load(),
		JobsFailed:            s.counters.jobsFailed.Load(),
		JobsCanceled:          s.counters.jobsCanceled.Load(),
		JobsRunning:           s.counters.jobsRunning.Load(),
		QueueDepth:            s.mgr.QueueDepth(),
		QueueCapacity:         s.opts.QueueDepth,
		MineExecutions:        s.counters.mineExecutions.Load(),
		CacheHits:             s.counters.cacheHits.Load(),
		DedupHits:             s.counters.dedupHits.Load(),
		ResultCacheEntries:    s.cache.len(),
		Ready:                 s.Ready(),
		JobPanics:             s.counters.jobPanics.Load(),
		ResultCacheEvictions:  s.cache.evicted(),
		TraceReplays:          s.counters.traceReplays.Load(),
		TraceReplayMismatches: s.counters.traceReplayMismatches.Load(),
	}
	if s.opts.Store != nil {
		h := s.opts.Store.Health()
		cold, demotions, promotions := s.reg.ColdStats()
		m.Store = &StoreHealth{
			WALAppends:      h.WALAppends,
			WALFsyncs:       h.WALFsyncs,
			Checkpoints:     h.Checkpoints,
			Recoveries:      h.Recoveries,
			ColdLoads:       h.ColdLoads,
			CorruptSegments: h.CorruptSegments,
			DatasetsOnDisk:  h.Datasets,
			ColdDatasets:    cold,
			Demotions:       demotions,
			Promotions:      promotions,
		}
	}
	for _, j := range s.mgr.Jobs() {
		if snap, ok := j.liveMetrics(); ok {
			if m.Active == nil {
				m.Active = make(map[string]metrics.Snapshot)
			}
			m.Active[j.ID] = snap
		}
	}
	return m
}
