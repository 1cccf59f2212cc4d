package serve

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"sdadcs/internal/metrics"
	"sdadcs/internal/obs"
)

// AlgorithmTotals is the accumulated mining effort of one algorithm
// across every execution the service ran (cache hits and deduplicated
// followers cost no execution, so they do not accumulate here).
type AlgorithmTotals struct {
	Algorithm    string
	Jobs         int64
	Contrasts    int64
	Nodes        int64
	Pruned       int64
	SDADCalls    int64
	BitmapAndOps int64
	WallNanos    int64
}

// minerTotals folds per-job metrics snapshots into per-algorithm running
// totals at job completion. Unlike the live Active map of /v1/metrics
// (which vanishes when a job finishes), these are monotone counters fit
// for Prometheus rate() queries.
type minerTotals struct {
	mu   sync.Mutex
	algs map[string]*AlgorithmTotals
}

func newMinerTotals() *minerTotals {
	return &minerTotals{algs: make(map[string]*AlgorithmTotals)}
}

func (t *minerTotals) observe(alg string, s metrics.Snapshot, contrasts int, wall time.Duration) {
	var nodes int64
	for _, lv := range s.Levels {
		nodes += lv.Nodes
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.algs[alg]
	if !ok {
		a = &AlgorithmTotals{Algorithm: alg}
		t.algs[alg] = a
	}
	a.Jobs++
	a.Contrasts += int64(contrasts)
	a.Nodes += nodes
	a.Pruned += s.TotalPruned()
	a.SDADCalls += s.SDADCalls
	a.BitmapAndOps += s.BitmapAndOps
	a.WallNanos += int64(wall)
}

// snapshot copies the totals sorted by algorithm name (deterministic
// exposition order).
func (t *minerTotals) snapshot() []AlgorithmTotals {
	t.mu.Lock()
	out := make([]AlgorithmTotals, 0, len(t.algs))
	for _, a := range t.algs {
		out = append(out, *a)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Algorithm < out[j].Algorithm })
	return out
}

// algFamilies renders the per-algorithm totals as labeled families.
func algFamilies(totals []AlgorithmTotals) []obs.Family {
	if len(totals) == 0 {
		return nil
	}
	mk := func(name, help string, get func(AlgorithmTotals) float64) obs.Family {
		f := obs.Family{Name: name, Help: help, Type: obs.TypeCounter}
		for _, a := range totals {
			f.Samples = append(f.Samples, obs.Sample{
				Labels: []obs.Label{{Name: "algorithm", Value: a.Algorithm}},
				Value:  get(a),
			})
		}
		return f
	}
	return []obs.Family{
		mk("sdadcs_miner_jobs_total", "Mine executions completed, by algorithm.",
			func(a AlgorithmTotals) float64 { return float64(a.Jobs) }),
		mk("sdadcs_miner_contrasts_total", "Contrast patterns produced, by algorithm.",
			func(a AlgorithmTotals) float64 { return float64(a.Contrasts) }),
		mk("sdadcs_miner_nodes_total", "Search nodes evaluated, by algorithm.",
			func(a AlgorithmTotals) float64 { return float64(a.Nodes) }),
		mk("sdadcs_miner_pruned_total", "Search spaces pruned, by algorithm.",
			func(a AlgorithmTotals) float64 { return float64(a.Pruned) }),
		mk("sdadcs_miner_sdad_calls_total", "SDAD-CS discretization invocations, by algorithm.",
			func(a AlgorithmTotals) float64 { return float64(a.SDADCalls) }),
		mk("sdadcs_miner_bitmap_and_ops_total", "Bitmap AND intersections, by algorithm.",
			func(a AlgorithmTotals) float64 { return float64(a.BitmapAndOps) }),
		mk("sdadcs_miner_wall_seconds_total", "Cumulative mine wall time, by algorithm.",
			func(a AlgorithmTotals) float64 { return float64(a.WallNanos) / 1e9 }),
	}
}

// promFamilies assembles the full exposition: serve-level counters (the
// same state as JSON /v1/metrics), queue and cache behavior, registry and
// index lifecycle, per-route RED series, per-algorithm miner totals, and
// Go runtime stats.
func (s *Server) promFamilies() []obs.Family {
	entries, rows, evictions := s.reg.Stats()
	ixCached, ixBuilds, ixEvictions := s.reg.IndexStats()

	fams := []obs.Family{
		obs.Gauge("sdadcs_serve_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds()),
		obs.Gauge("sdadcs_serve_ready", "Readiness gate: 1 while accepting traffic, 0 once draining.", b2f(s.Ready())),
		obs.Gauge("sdadcs_serve_datasets_registered", "Datasets currently in the registry.", float64(entries)),
		obs.Gauge("sdadcs_serve_dataset_rows", "Total rows across registered datasets.", float64(rows)),
		obs.Counter("sdadcs_serve_dataset_evictions_total", "Datasets evicted by the registry row budget.", float64(evictions)),
		obs.Counter("sdadcs_serve_index_builds_total", "Bitmap-index constructions across all datasets ever registered.", float64(ixBuilds)),
		obs.Gauge("sdadcs_serve_index_cached", "Live datasets currently holding a built bitmap index.", float64(ixCached)),
		obs.Counter("sdadcs_serve_index_evictions_total", "Bitmap indexes dropped by registry eviction.", float64(ixEvictions)),
		obs.Counter("sdadcs_serve_jobs_submitted_total", "Jobs accepted by Submit.", float64(s.counters.jobsSubmitted.Load())),
		obs.Counter("sdadcs_serve_jobs_done_total", "Jobs finished successfully.", float64(s.counters.jobsDone.Load())),
		obs.Counter("sdadcs_serve_jobs_failed_total", "Jobs finished in error.", float64(s.counters.jobsFailed.Load())),
		obs.Counter("sdadcs_serve_jobs_canceled_total", "Jobs canceled before completion.", float64(s.counters.jobsCanceled.Load())),
		obs.Counter("sdadcs_serve_job_panics_total", "Mine executions that panicked and were isolated into failed jobs.", float64(s.counters.jobPanics.Load())),
		obs.Gauge("sdadcs_serve_jobs_running", "Jobs currently executing.", float64(s.counters.jobsRunning.Load())),
		obs.Gauge("sdadcs_serve_queue_depth", "Occupied job-queue slots.", float64(s.mgr.QueueDepth())),
		obs.Gauge("sdadcs_serve_queue_capacity", "Total job-queue slots.", float64(s.opts.QueueDepth)),
		obs.HistogramFamily("sdadcs_serve_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", nil, s.mgr.QueueWait()),
		obs.Counter("sdadcs_serve_mine_executions_total", "Actual engine executions (excludes cache hits and deduplicated followers).", float64(s.counters.mineExecutions.Load())),
		obs.Counter("sdadcs_serve_result_cache_hits_total", "Jobs answered from the result cache.", float64(s.counters.cacheHits.Load())),
		obs.Counter("sdadcs_serve_dedup_hits_total", "Jobs deduplicated onto an in-flight identical execution.", float64(s.counters.dedupHits.Load())),
		obs.Gauge("sdadcs_serve_result_cache_entries", "Entries in the result cache.", float64(s.cache.len())),
		obs.Counter("sdadcs_serve_result_cache_evictions_total", "Result-cache entries dropped by LRU pressure.", float64(s.cache.evicted())),
	}
	if s.opts.Store != nil {
		h := s.opts.Store.Health()
		cold, demotions, promotions := s.reg.ColdStats()
		fams = append(fams,
			obs.Counter("sdadcs_store_wal_appends_total", "Records appended to the dataset store's write-ahead log.", float64(h.WALAppends)),
			obs.Counter("sdadcs_store_wal_fsyncs_total", "Fsync calls acknowledging WAL records.", float64(h.WALFsyncs)),
			obs.Counter("sdadcs_store_checkpoints_total", "Checkpoints folding the WAL into fresh segment files.", float64(h.Checkpoints)),
			obs.Counter("sdadcs_store_recoveries_total", "Store opens that recovered prior on-disk state.", float64(h.Recoveries)),
			obs.Counter("sdadcs_store_cold_loads_total", "Datasets decoded from cold segment files on demand.", float64(h.ColdLoads)),
			obs.Counter("sdadcs_store_corrupt_segments_total", "Segment files that failed integrity checks and were quarantined.", float64(h.CorruptSegments)),
			obs.Gauge("sdadcs_store_datasets_on_disk", "Datasets currently persisted in the store.", float64(h.Datasets)),
			obs.Gauge("sdadcs_store_cold_datasets", "Registry entries currently demoted to the on-disk cold tier.", float64(cold)),
			obs.Counter("sdadcs_store_cold_demotions_total", "Registry evictions that became cold-tier demotions.", float64(demotions)),
			obs.Counter("sdadcs_store_cold_promotions_total", "Cold-tier entries promoted back into memory by demand.", float64(promotions)),
		)
	}
	fams = append(fams, algFamilies(s.mgr.MinerTotals())...)
	fams = append(fams, obs.REDFamilies("sdadcs_http_", s.httpm)...)
	fams = append(fams, obs.RuntimeFamilies()...)
	return fams
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// handlePrometheus writes the text exposition (v0.0.4).
func (s *Server) handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := obs.WriteExposition(w, s.promFamilies()); err != nil {
		s.log.Error("prometheus exposition failed", "component", "serve.http", "error", err)
	}
}
