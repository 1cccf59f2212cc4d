package serve

import (
	"sort"
	"time"

	"sdadcs/internal/metrics"
	"sdadcs/internal/obs"
)

// algTotals is one algorithm's accumulated executions: monotone totals
// fit for Prometheus rate() queries, unlike the Active map of
// /v1/metrics, which drops a job when it ends. Cache hits and
// deduplicated followers cost no execution, so they do not accumulate.
type algTotals struct {
	jobs int64
	wall time.Duration
	snap metrics.Snapshot
}

// observeMine folds one execution into its algorithm's totals.
func (m *Manager) observeMine(alg string, s metrics.Snapshot, wall time.Duration) {
	m.totalsMu.Lock()
	defer m.totalsMu.Unlock()
	t := m.totals[alg]
	if t == nil {
		t = &algTotals{}
		m.totals[alg] = t
	}
	t.jobs++
	t.wall += wall
	t.snap.Merge(s)
}

// minerFamilies renders the per-algorithm totals, labeled by algorithm:
// executions and their wall time, then every miner family over each
// algorithm's accumulated snapshot.
func (m *Manager) minerFamilies() []obs.Family {
	m.totalsMu.Lock()
	defer m.totalsMu.Unlock()
	if len(m.totals) == 0 {
		return nil
	}
	algs := make([]string, 0, len(m.totals))
	for a := range m.totals {
		algs = append(algs, a)
	}
	sort.Strings(algs)
	jobs := obs.Family{Name: "sdadcs_miner_jobs_total", Help: "Mine executions completed, by algorithm.", Type: obs.TypeCounter}
	wall := obs.Family{Name: "sdadcs_miner_wall_seconds_total", Help: "Cumulative mine wall time, by algorithm.", Type: obs.TypeCounter}
	series := make([]obs.MinerSeries, len(algs))
	for i, a := range algs {
		t := m.totals[a]
		labels := []obs.Label{{Name: "algorithm", Value: a}}
		jobs.Samples = append(jobs.Samples, obs.Sample{Labels: labels, Value: float64(t.jobs)})
		wall.Samples = append(wall.Samples, obs.Sample{Labels: labels, Value: t.wall.Seconds()})
		series[i] = obs.MinerSeries{Labels: labels, Snapshot: t.snap}
	}
	return append([]obs.Family{jobs, wall}, obs.MinerFamilies("sdadcs_miner_", series...)...)
}

// promFamilies renders one Metrics read as the full exposition:
// serve-level counters (the same state as JSON /v1/metrics), queue and
// cache behavior, registry and index lifecycle, store health, then
// per-algorithm miner totals, per-route RED series and Go runtime stats.
func (s *Server) promFamilies(m ServerMetrics) []obs.Family {
	fams := []obs.Family{
		obs.Gauge("sdadcs_serve_uptime_seconds", "Seconds since the server started.", float64(m.UptimeNanos)/1e9),
		obs.Gauge("sdadcs_serve_ready", "Readiness gate: 1 while accepting traffic, 0 once draining.", b2f(m.Ready)),
		obs.Gauge("sdadcs_serve_datasets_registered", "Datasets currently in the registry.", float64(m.DatasetsRegistered)),
		obs.Gauge("sdadcs_serve_dataset_rows", "Total rows across registered datasets.", float64(m.DatasetRows)),
		obs.Counter("sdadcs_serve_dataset_evictions_total", "Datasets evicted by the registry row budget.", float64(m.DatasetEvictions)),
		obs.Counter("sdadcs_serve_index_builds_total", "Bitmap-index constructions across all datasets ever registered.", float64(m.IndexBuilds)),
		obs.Gauge("sdadcs_serve_index_cached", "Live datasets currently holding a built bitmap index.", float64(m.IndexCached)),
		obs.Counter("sdadcs_serve_index_evictions_total", "Bitmap indexes dropped by registry eviction.", float64(m.IndexEvictions)),
		obs.Counter("sdadcs_serve_jobs_submitted_total", "Jobs accepted by Submit.", float64(m.JobsSubmitted)),
		obs.Counter("sdadcs_serve_jobs_done_total", "Jobs finished successfully.", float64(m.JobsDone)),
		obs.Counter("sdadcs_serve_jobs_failed_total", "Jobs finished in error.", float64(m.JobsFailed)),
		obs.Counter("sdadcs_serve_jobs_canceled_total", "Jobs canceled before completion.", float64(m.JobsCanceled)),
		obs.Counter("sdadcs_serve_job_panics_total", "Mine executions that panicked and were isolated into failed jobs.", float64(m.JobPanics)),
		obs.Gauge("sdadcs_serve_jobs_running", "Jobs currently executing.", float64(m.JobsRunning)),
		obs.Gauge("sdadcs_serve_queue_depth", "Occupied job-queue slots.", float64(m.QueueDepth)),
		obs.Gauge("sdadcs_serve_queue_capacity", "Total job-queue slots.", float64(m.QueueCapacity)),
		obs.HistogramFamily("sdadcs_serve_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", nil, s.mgr.QueueWait()),
		obs.Counter("sdadcs_serve_mine_executions_total", "Actual engine executions (excludes cache hits and deduplicated followers).", float64(m.MineExecutions)),
		obs.Counter("sdadcs_serve_result_cache_hits_total", "Jobs answered from the result cache.", float64(m.CacheHits)),
		obs.Counter("sdadcs_serve_dedup_hits_total", "Jobs deduplicated onto an in-flight identical execution.", float64(m.DedupHits)),
		obs.Gauge("sdadcs_serve_result_cache_entries", "Entries in the result cache.", float64(m.ResultCacheEntries)),
		obs.Counter("sdadcs_serve_result_cache_evictions_total", "Result-cache entries dropped by LRU pressure.", float64(m.ResultCacheEvictions)),
		obs.Counter("sdadcs_serve_trace_replays_total", "Re-mines run to serve a done job's decision trace on first read.", float64(m.TraceReplays)),
		obs.Counter("sdadcs_serve_trace_replay_mismatches_total", "Trace replays whose re-mine rendered a different result than the job's.", float64(m.TraceReplayMismatches)),
	}
	if h := m.Store; h != nil {
		fams = append(fams,
			obs.Counter("sdadcs_store_wal_appends_total", "Records appended to the dataset store's write-ahead log.", float64(h.WALAppends)),
			obs.Counter("sdadcs_store_wal_fsyncs_total", "Fsync calls acknowledging WAL records.", float64(h.WALFsyncs)),
			obs.Counter("sdadcs_store_checkpoints_total", "Checkpoints writing the manifest and truncating the WAL.", float64(h.Checkpoints)),
			obs.Counter("sdadcs_store_recoveries_total", "Store opens that recovered prior on-disk state.", float64(h.Recoveries)),
			obs.Counter("sdadcs_store_cold_loads_total", "Datasets decoded from cold segment files on demand.", float64(h.ColdLoads)),
			obs.Counter("sdadcs_store_corrupt_segments_total", "Segment files that failed integrity checks and were quarantined.", float64(h.CorruptSegments)),
			obs.Gauge("sdadcs_store_datasets_on_disk", "Datasets currently persisted in the store.", float64(h.DatasetsOnDisk)),
			obs.Gauge("sdadcs_store_cold_datasets", "Registry entries currently demoted to the on-disk cold tier.", float64(h.ColdDatasets)),
			obs.Counter("sdadcs_store_cold_demotions_total", "Registry evictions that became cold-tier demotions.", float64(h.Demotions)),
			obs.Counter("sdadcs_store_cold_promotions_total", "Cold-tier entries promoted back into memory by demand.", float64(h.Promotions)),
		)
	}
	fams = append(fams, s.mgr.minerFamilies()...)
	fams = append(fams, obs.REDFamilies("sdadcs_http_", s.httpm)...)
	return append(fams, obs.RuntimeFamilies()...)
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
