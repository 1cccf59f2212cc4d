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

// pruneNames are the rules' stable identifiers in the JSON snapshot and
// the Prometheus rule label.
var pruneNames = [numPruneRules]string{"min_deviation", "expected_count", "chisq_oe",
	"redundancy_clt", "pure_space", "lookup_table", "optimistic_estimate"}

// String names the rule ("unknown" out of range).
func (r PruneRule) String() string {
	if r < 0 || r >= numPruneRules {
		return "unknown"
	}
	return pruneNames[r]
}

// Counter enumerates the plain miner counters: unlabeled monotone totals.
// Each has one row in counterDescs, which names it in the JSON snapshot
// and the Prometheus exposition and points at its Snapshot field.
type Counter int

// Plain counters, in Snapshot field order.
const (
	SDADCalls         Counter = iota // SDAD-CS (Algorithm 1) invocations
	Splits                           // median splits of partition steps
	BoxesExplored                    // partition boxes formed by find_combs
	MergeAttempts                    // tryMerge calls of the bottom-up phase
	MergeOps                         // successful space merges
	BitmapBuilds                     // bitmaps built for a dataset's value index (once per dataset, bitmap.Shared)
	BitmapIndexReuses                // Mine calls that found the dataset's index already built
	BitmapAndOps                     // fused base ∧ value child counts and survivor covers written out
	BitmapPopcounts                  // popcount passes (per-group support counts, cover sizes)
	BitmapLazyRows                   // lazy cover → row-slice materializations for SDAD-CS box interiors

	// NumCounters is the number of plain counters.
	NumCounters
)

// counterDescs declares each plain counter once: its JSON field name (the
// Prometheus family is prefix + name + "_total"), its help text and its
// Snapshot field.
var counterDescs = [NumCounters]struct {
	name, help string
	field      func(*Snapshot) *int64
}{
	SDADCalls:         {"sdad_calls", "SDAD-CS discretization invocations.", func(s *Snapshot) *int64 { return &s.SDADCalls }},
	Splits:            {"splits", "Median splits performed by SDAD-CS.", func(s *Snapshot) *int64 { return &s.Splits }},
	BoxesExplored:     {"boxes_explored", "Partition boxes explored by SDAD-CS.", func(s *Snapshot) *int64 { return &s.BoxesExplored }},
	MergeAttempts:     {"merge_attempts", "Bottom-up merge attempts.", func(s *Snapshot) *int64 { return &s.MergeAttempts }},
	MergeOps:          {"merge_ops", "Successful space merges.", func(s *Snapshot) *int64 { return &s.MergeOps }},
	BitmapBuilds:      {"bitmap_builds", "Bitmaps constructed for the dataset index.", func(s *Snapshot) *int64 { return &s.BitmapBuilds }},
	BitmapIndexReuses: {"bitmap_index_reuses", "Mine calls that reused an already-built index.", func(s *Snapshot) *int64 { return &s.BitmapIndexReuses }},
	BitmapAndOps:      {"bitmap_and_ops", "Cover AND value-bitmap intersections.", func(s *Snapshot) *int64 { return &s.BitmapAndOps }},
	BitmapPopcounts:   {"bitmap_popcounts", "Popcount passes over covers and group masks.", func(s *Snapshot) *int64 { return &s.BitmapPopcounts }},
	BitmapLazyRows:    {"bitmap_lazy_rows", "Lazy cover to row-slice materializations.", func(s *Snapshot) *int64 { return &s.BitmapLazyRows }},
}

// String is the counter's JSON field name.
func (c Counter) String() string { return counterDescs[c].name }

// Help is the counter's one-line description (the Prometheus HELP text).
func (c Counter) Help() string { return counterDescs[c].help }

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
	raise(&t.maxNanos, n)
}

// raise lifts a to v if v is larger (CAS loop).
func raise(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
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

	counters [NumCounters]atomic.Int64

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
func levelSlot(level int) int { return min(max(level, 1), maxLevels) - 1 }

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
	raise(&lc.workers, int64(workers))
	raise(&r.maxLevel, int64(level))
}

// NodeEval records one node evaluation at a level: its duration feeds both
// the level's summed evaluation time and the global latency histogram.
// Called concurrently by per-level workers, once per frontier node they
// evaluate; a candidate cut at generation is not observed.
func (r *Recorder) NodeEval(level int, d time.Duration) {
	if r == nil {
		return
	}
	r.levels[levelSlot(level)].evalNanos.Add(int64(d))
	r.nodeEval.Observe(d)
	raise(&r.maxLevel, int64(level))
}

// Add adds n to a plain counter.
func (r *Recorder) Add(c Counter, n int) {
	if r == nil {
		return
	}
	r.counters[c].Add(int64(n))
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
	raise(&r.traceHighWater, int64(highWater))
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

// Counter returns a plain counter's value in the snapshot.
func (s *Snapshot) Counter(c Counter) int64 { return *counterDescs[c].field(s) }

// Merge folds o into s, making s a total over several runs: counters,
// prune hits, per-level aggregates, the node-evaluation histogram, the
// re-mine timer and the trace volume add up; level fan-out, re-mine
// extremes and the trace high-water mark keep their extreme; the
// threshold takes o's value. Uptime is left as is.
func (s *Snapshot) Merge(o Snapshot) {
	for c := Counter(0); c < NumCounters; c++ {
		*counterDescs[c].field(s) += o.Counter(c)
	}
	for _, p := range o.Prune {
		i := 0
		for i < len(s.Prune) && s.Prune[i].Rule != p.Rule {
			i++
		}
		if i == len(s.Prune) {
			s.Prune = append(s.Prune, PruneCount{Rule: p.Rule})
		}
		s.Prune[i].Hits += p.Hits
	}
	for i, lv := range o.Levels {
		if i == len(s.Levels) {
			s.Levels = append(s.Levels, LevelSnapshot{Level: lv.Level})
		}
		l := &s.Levels[i]
		l.Nodes += lv.Nodes
		l.Survivors += lv.Survivors
		l.Contrasts += lv.Contrasts
		l.WallNanos += lv.WallNanos
		l.EvalNanos += lv.EvalNanos
		l.Workers = max(l.Workers, lv.Workers)
	}
	s.ThresholdUpdates += o.ThresholdUpdates
	s.Threshold = o.Threshold
	s.NodeEval.merge(o.NodeEval)
	if o.Remine.Count > 0 {
		if s.Remine.Count == 0 || o.Remine.MinNanos < s.Remine.MinNanos {
			s.Remine.MinNanos = o.Remine.MinNanos
		}
		s.Remine.MaxNanos = max(s.Remine.MaxNanos, o.Remine.MaxNanos)
		s.Remine.Count += o.Remine.Count
		s.Remine.TotalNanos += o.Remine.TotalNanos
	}
	s.TraceEvents += o.TraceEvents
	s.TraceDropped += o.TraceDropped
	s.TraceHighWater = max(s.TraceHighWater, o.TraceHighWater)
}

// Snapshot copies the recorder's state. A nil recorder yields the zero
// snapshot (empty slices omitted), so callers can snapshot unconditionally.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		ThresholdUpdates: r.thresholdUpdates.Load(),
		Threshold:        math.Float64frombits(r.thresholdBits.Load()),
		NodeEval:         r.nodeEval.Snapshot(),
		Remine:           r.remine.snapshot(),
		TraceEvents:      r.traceEmitted.Load(),
		TraceDropped:     r.traceDropped.Load(),
		TraceHighWater:   r.traceHighWater.Load(),
	}
	for c := Counter(0); c < NumCounters; c++ {
		*counterDescs[c].field(&s) = r.counters[c].Load()
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
