// Package metrics is the low-overhead instrumentation substrate for the
// mining pipeline: atomic counters, monotonic timers and per-level
// aggregates threaded through the hot path of core.Mine, the SDAD-CS
// recursion, the top-k threshold and the stream monitor.
//
// The central type is Recorder. A nil *Recorder is a valid, disabled
// recorder: every method nil-checks its receiver and returns immediately,
// so the default (uninstrumented) mining path pays a single predictable
// branch per call site and allocates nothing — see
// TestDisabledRecorderAllocs and the paired BenchmarkMineMetrics.
//
// All mutation is lock-free (sync/atomic); a Recorder may be shared by any
// number of worker goroutines. Snapshot() produces a consistent-enough,
// deterministic-shaped copy for JSON export: field order is fixed, no maps
// are used, and levels/buckets appear in index order, so two snapshots of
// the same state marshal to identical bytes.
package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// PruneRule enumerates the instrumented §4.3 search-space reduction
// strategies. The order matches core.Pruning's field order.
type PruneRule int

// Instrumented pruning rules.
const (
	// PruneMinDeviation counts minimum-deviation-size cuts (no group
	// reaches δ).
	PruneMinDeviation PruneRule = iota
	// PruneExpectedCount counts expected-cell-count<5 cuts.
	PruneExpectedCount
	// PruneChiSquareOE counts chi-square optimistic-estimate recursion
	// stops.
	PruneChiSquareOE
	// PruneRedundancyCLT counts CLT redundancy cuts (Eq. 14–16).
	PruneRedundancyCLT
	// PrunePureSpace counts PR=1 extension stops.
	PrunePureSpace
	// PruneLookupTable counts spaces cut because a subset was already
	// recorded prunable (§4.1).
	PruneLookupTable
	// PruneOptimisticEstimate counts SDAD-CS recursions skipped because
	// the optimistic estimate (Eq. 5–11) cannot beat the top-k threshold.
	PruneOptimisticEstimate

	numPruneRules
)

// String names the rule (stable identifiers used in the JSON snapshot).
func (r PruneRule) String() string {
	switch r {
	case PruneMinDeviation:
		return "min_deviation"
	case PruneExpectedCount:
		return "expected_count"
	case PruneChiSquareOE:
		return "chisq_oe"
	case PruneRedundancyCLT:
		return "redundancy_clt"
	case PrunePureSpace:
		return "pure_space"
	case PruneLookupTable:
		return "lookup_table"
	case PruneOptimisticEstimate:
		return "optimistic_estimate"
	default:
		return "unknown"
	}
}

// maxLevels bounds the per-level aggregates. Combination-search depth is
// cfg.MaxDepth (default 5, paper's stunted tree); deeper levels clamp into
// the last slot rather than allocate.
const maxLevels = 16

// levelCounters aggregates one search level. All fields are atomics so
// parallel per-level workers can report without locks.
type levelCounters struct {
	nodes     atomic.Int64 // frontier nodes evaluated
	survivors atomic.Int64 // nodes whose children will be explored
	contrasts atomic.Int64 // contrasts emitted by the level
	wallNanos atomic.Int64 // wall time of the level (one observation)
	evalNanos atomic.Int64 // summed per-node evaluation time (CPU-ish)
	workers   atomic.Int64 // goroutine fan-out used for the level
}

// timer accumulates duration observations: count, total, min, max. The
// minimum is stored offset by one (0 = no observation yet) so the zero
// value works without initialization and first-observation races resolve
// through plain CAS loops.
type timer struct {
	count      atomic.Int64
	total      atomic.Int64
	minPlusOne atomic.Int64
	maxNanos   atomic.Int64
}

func (t *timer) observe(d time.Duration) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	t.count.Add(1)
	t.total.Add(n)
	for {
		cur := t.minPlusOne.Load()
		if cur != 0 && cur <= n+1 {
			break
		}
		if t.minPlusOne.CompareAndSwap(cur, n+1) {
			break
		}
	}
	for {
		cur := t.maxNanos.Load()
		if cur >= n {
			break
		}
		if t.maxNanos.CompareAndSwap(cur, n) {
			break
		}
	}
}

func (t *timer) snapshot() TimerSnapshot {
	s := TimerSnapshot{
		Count:      t.count.Load(),
		TotalNanos: t.total.Load(),
		MaxNanos:   t.maxNanos.Load(),
	}
	if m := t.minPlusOne.Load(); m > 0 {
		s.MinNanos = m - 1
	}
	return s
}

// Recorder is the concurrency-safe instrumentation sink. The zero value is
// ready to use; New also stamps the start time. A nil *Recorder is the
// disabled recorder: all methods no-op after a single pointer check.
type Recorder struct {
	start time.Time

	prune  [numPruneRules]atomic.Int64
	levels [maxLevels]levelCounters
	// maxLevel tracks the deepest level observed (1-based; 0 = none).
	maxLevel atomic.Int64

	// SDAD-CS discretization counters.
	sdadCalls     atomic.Int64
	splits        atomic.Int64 // median splits performed
	boxes         atomic.Int64 // partition boxes explored (find_combs)
	mergeAttempts atomic.Int64
	mergeOps      atomic.Int64

	// Bitmap support-counting counters.
	bitmapBuilds       atomic.Int64 // bitmaps constructed for the dataset-cached index
	bitmapIndexReuses  atomic.Int64 // Mine calls that reused an already-built index
	bitmapAndOps       atomic.Int64 // cover ∧ value-bitmap intersections
	bitmapPopcounts    atomic.Int64 // popcount passes (group counts, cover sizes)
	bitmapMaterialized atomic.Int64 // lazy cover → row-slice materializations

	// Top-k threshold dynamics.
	thresholdUpdates atomic.Int64
	thresholdBits    atomic.Uint64 // float64 bits of the latest threshold

	// Per-node evaluation latency histogram (log2 ns buckets).
	nodeEval Histogram

	// Stream monitor window re-mine latency.
	remine timer

	// Trace-volume counters (fed by core.Mine from trace.Tracer.Stats).
	traceEmitted   atomic.Uint64
	traceDropped   atomic.Uint64
	traceHighWater atomic.Int64
}

// New returns an enabled recorder with its uptime clock started.
func New() *Recorder {
	return &Recorder{start: time.Now()}
}

// Enabled reports whether the recorder collects anything. It is the guard
// call sites use to skip clock reads on the disabled path.
func (r *Recorder) Enabled() bool { return r != nil }

// PruneHit counts one firing of a pruning rule.
func (r *Recorder) PruneHit(rule PruneRule) {
	if r == nil {
		return
	}
	if rule < 0 || rule >= numPruneRules {
		return
	}
	r.prune[rule].Add(1)
}

// levelSlot clamps a 1-based level into the aggregate array.
func levelSlot(level int) int {
	if level < 1 {
		level = 1
	}
	if level > maxLevels {
		level = maxLevels
	}
	return level - 1
}

// LevelObserve records one completed search level: frontier size, survivor
// count, contrasts emitted, worker fan-out and wall time.
func (r *Recorder) LevelObserve(level, nodes, survivors, contrasts, workers int, wall time.Duration) {
	if r == nil {
		return
	}
	lc := &r.levels[levelSlot(level)]
	lc.nodes.Add(int64(nodes))
	lc.survivors.Add(int64(survivors))
	lc.contrasts.Add(int64(contrasts))
	lc.wallNanos.Add(int64(wall))
	if w := int64(workers); w > lc.workers.Load() {
		lc.workers.Store(w)
	}
	r.observeLevelDepth(level)
}

// observeLevelDepth raises maxLevel to the given level (CAS loop).
func (r *Recorder) observeLevelDepth(level int) {
	for {
		cur := r.maxLevel.Load()
		if int64(level) <= cur {
			return
		}
		if r.maxLevel.CompareAndSwap(cur, int64(level)) {
			return
		}
	}
}

// NodeEval records one node evaluation at a level: its duration feeds both
// the level's summed evaluation time and the global latency histogram.
// Called concurrently by per-level workers.
func (r *Recorder) NodeEval(level int, d time.Duration) {
	if r == nil {
		return
	}
	r.levels[levelSlot(level)].evalNanos.Add(int64(d))
	r.nodeEval.Observe(d)
	r.observeLevelDepth(level)
}

// SDADCall counts one SDAD-CS (Algorithm 1) invocation.
func (r *Recorder) SDADCall() {
	if r == nil {
		return
	}
	r.sdadCalls.Add(1)
}

// Splits counts median splits performed by one partition step.
func (r *Recorder) Splits(n int) {
	if r == nil {
		return
	}
	r.splits.Add(int64(n))
}

// BoxesExplored counts partition boxes formed by find_combs.
func (r *Recorder) BoxesExplored(n int) {
	if r == nil {
		return
	}
	r.boxes.Add(int64(n))
}

// MergeAttempt counts one tryMerge call of the bottom-up phase.
func (r *Recorder) MergeAttempt() {
	if r == nil {
		return
	}
	r.mergeAttempts.Add(1)
}

// MergeOp counts one successful space merge.
func (r *Recorder) MergeOp() {
	if r == nil {
		return
	}
	r.mergeOps.Add(1)
}

// BitmapBuilds counts bitmaps constructed while building a per-Mine value
// index (one per categorical value and per group).
func (r *Recorder) BitmapBuilds(n int) {
	if r == nil {
		return
	}
	r.bitmapBuilds.Add(int64(n))
}

// BitmapIndexReuse counts one Mine call that found the dataset's index
// already built and skipped construction entirely — the reuse signal the
// index-caching tests assert against BitmapBuilds.
func (r *Recorder) BitmapIndexReuse() {
	if r == nil {
		return
	}
	r.bitmapIndexReuses.Add(1)
}

// BitmapAnd counts one cover ∧ value-bitmap intersection.
func (r *Recorder) BitmapAnd() {
	if r == nil {
		return
	}
	r.bitmapAndOps.Add(1)
}

// BitmapAnds counts n cover ∧ value-bitmap intersections at once (the
// batched sibling kernel performs one fused AND per sibling code).
func (r *Recorder) BitmapAnds(n int) {
	if r == nil {
		return
	}
	r.bitmapAndOps.Add(int64(n))
}

// BitmapPopcounts counts n popcount passes (per-group support counts and
// cover cardinalities).
func (r *Recorder) BitmapPopcounts(n int) {
	if r == nil {
		return
	}
	r.bitmapPopcounts.Add(int64(n))
}

// BitmapMaterialize counts one lazy bitmap-cover → row-slice
// materialization (the SDAD-CS fallback: box interiors need raw row indices
// for median computation).
func (r *Recorder) BitmapMaterialize() {
	if r == nil {
		return
	}
	r.bitmapMaterialized.Add(1)
}

// ThresholdUpdate records a top-k admission-threshold change.
func (r *Recorder) ThresholdUpdate(v float64) {
	if r == nil {
		return
	}
	r.thresholdUpdates.Add(1)
	r.thresholdBits.Store(math.Float64bits(v))
}

// TraceVolume records the decision-trace volume counters: events offered,
// events dropped on buffer overflow, and the buffer high-water mark.
// Emitted/dropped are cumulative tracer-lifetime totals, so Store (not Add)
// semantics apply; the high-water mark only ratchets upward.
func (r *Recorder) TraceVolume(emitted, dropped uint64, highWater int) {
	if r == nil {
		return
	}
	r.traceEmitted.Store(emitted)
	r.traceDropped.Store(dropped)
	for {
		cur := r.traceHighWater.Load()
		if int64(highWater) <= cur {
			return
		}
		if r.traceHighWater.CompareAndSwap(cur, int64(highWater)) {
			return
		}
	}
}

// RemineObserve records one stream-monitor window re-mine latency.
func (r *Recorder) RemineObserve(d time.Duration) {
	if r == nil {
		return
	}
	r.remine.observe(d)
}

// PruneCount is one rule's hit count in a snapshot.
type PruneCount struct {
	Rule string `json:"rule"`
	Hits int64  `json:"hits"`
}

// LevelSnapshot is one search level's aggregates.
type LevelSnapshot struct {
	Level     int   `json:"level"`
	Nodes     int64 `json:"nodes"`
	Survivors int64 `json:"survivors"`
	Contrasts int64 `json:"contrasts"`
	WallNanos int64 `json:"wall_ns"`
	EvalNanos int64 `json:"eval_ns"`
	Workers   int64 `json:"workers"`
}

// TimerSnapshot summarizes a duration accumulator.
type TimerSnapshot struct {
	Count      int64 `json:"count"`
	TotalNanos int64 `json:"total_ns"`
	MinNanos   int64 `json:"min_ns"`
	MaxNanos   int64 `json:"max_ns"`
}

// Mean returns the mean observation, or 0 when empty.
func (t TimerSnapshot) Mean() time.Duration {
	if t.Count == 0 {
		return 0
	}
	return time.Duration(t.TotalNanos / t.Count)
}

// Snapshot is a point-in-time copy of a Recorder, shaped for deterministic
// JSON marshalling (fixed field order, no maps, index-ordered slices).
type Snapshot struct {
	UptimeNanos       int64             `json:"uptime_ns"`
	Prune             []PruneCount      `json:"prune"`
	Levels            []LevelSnapshot   `json:"levels"`
	SDADCalls         int64             `json:"sdad_calls"`
	Splits            int64             `json:"splits"`
	BoxesExplored     int64             `json:"boxes_explored"`
	MergeAttempts     int64             `json:"merge_attempts"`
	MergeOps          int64             `json:"merge_ops"`
	BitmapBuilds      int64             `json:"bitmap_builds"`
	BitmapIndexReuses int64             `json:"bitmap_index_reuses"`
	BitmapAndOps      int64             `json:"bitmap_and_ops"`
	BitmapPopcounts   int64             `json:"bitmap_popcounts"`
	BitmapLazyRows    int64             `json:"bitmap_lazy_rows"`
	ArenaFresh        int64             `json:"arena_fresh"`    // always 0: the cover arena is retired;
	ArenaReused       int64             `json:"arena_reused"`   // the three fields stay for the JSON
	ArenaReleased     int64             `json:"arena_released"` // shape and for perfbench, which reads them
	ThresholdUpdates  int64             `json:"threshold_updates"`
	Threshold         float64           `json:"threshold"`
	NodeEval          HistogramSnapshot `json:"node_eval"`
	Remine            TimerSnapshot     `json:"remine"`
	// GateStableNodes and GateDirtyNodes are always 0: retired with the
	// incremental re-mine path, kept for perfbench, which reads them.
	GateStableNodes int64  `json:"gate_stable_nodes"`
	GateDirtyNodes  int64  `json:"gate_dirty_nodes"`
	TraceEvents     uint64 `json:"trace_events"`
	TraceDropped    uint64 `json:"trace_dropped"`
	TraceHighWater  int64  `json:"trace_high_water"`
}

// PruneHits returns the hit count of a rule in the snapshot (0 when the
// rule never fired or the snapshot is empty).
func (s *Snapshot) PruneHits(rule PruneRule) int64 {
	name := rule.String()
	for _, p := range s.Prune {
		if p.Rule == name {
			return p.Hits
		}
	}
	return 0
}

// TotalPruned sums all rule hits.
func (s *Snapshot) TotalPruned() int64 {
	var n int64
	for _, p := range s.Prune {
		n += p.Hits
	}
	return n
}

// Snapshot copies the recorder's state. A nil recorder yields the zero
// snapshot (empty slices omitted), so callers can snapshot unconditionally.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		SDADCalls:         r.sdadCalls.Load(),
		Splits:            r.splits.Load(),
		BoxesExplored:     r.boxes.Load(),
		MergeAttempts:     r.mergeAttempts.Load(),
		MergeOps:          r.mergeOps.Load(),
		BitmapBuilds:      r.bitmapBuilds.Load(),
		BitmapIndexReuses: r.bitmapIndexReuses.Load(),
		BitmapAndOps:      r.bitmapAndOps.Load(),
		BitmapPopcounts:   r.bitmapPopcounts.Load(),
		BitmapLazyRows:    r.bitmapMaterialized.Load(),
		ThresholdUpdates:  r.thresholdUpdates.Load(),
		Threshold:         math.Float64frombits(r.thresholdBits.Load()),
		NodeEval:          r.nodeEval.Snapshot(),
		Remine:            r.remine.snapshot(),
		TraceEvents:       r.traceEmitted.Load(),
		TraceDropped:      r.traceDropped.Load(),
		TraceHighWater:    r.traceHighWater.Load(),
	}
	if !r.start.IsZero() {
		s.UptimeNanos = int64(time.Since(r.start))
	}
	s.Prune = make([]PruneCount, numPruneRules)
	for i := PruneRule(0); i < numPruneRules; i++ {
		s.Prune[i] = PruneCount{Rule: i.String(), Hits: r.prune[i].Load()}
	}
	depth := int(r.maxLevel.Load())
	if depth > maxLevels {
		depth = maxLevels
	}
	s.Levels = make([]LevelSnapshot, 0, depth)
	for l := 1; l <= depth; l++ {
		lc := &r.levels[l-1]
		s.Levels = append(s.Levels, LevelSnapshot{
			Level:     l,
			Nodes:     lc.nodes.Load(),
			Survivors: lc.survivors.Load(),
			Contrasts: lc.contrasts.Load(),
			WallNanos: lc.wallNanos.Load(),
			EvalNanos: lc.evalNanos.Load(),
			Workers:   lc.workers.Load(),
		})
	}
	return s
}
