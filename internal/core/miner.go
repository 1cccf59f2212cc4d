package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
	"sdadcs/internal/topk"
	"sdadcs/internal/trace"
)

// Mine runs the full contrast pattern search of the paper over a mixed
// dataset: a levelwise enumeration of attribute combinations (Figure 1),
// with categorical-only combinations handled STUCCO-style and any
// combination containing continuous attributes handed to SDAD-CS
// (Algorithm 1). Results are the top-k contrasts under cfg.Measure, after
// the meaningfulness filter unless disabled.
func Mine(d *dataset.Dataset, cfg Config) Result {
	res, _ := MineContext(context.Background(), d, cfg)
	return res
}

// MineContext is Mine with cancellation: the search checks the context
// between levels (and between node batches when mining in parallel) and
// returns the contrasts found so far together with ctx.Err() when
// cancelled. A partial result is still sorted and, unless disabled,
// filtered.
func MineContext(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.defaults()
	m := &miner{
		ctx:   ctx,
		d:     d,
		cfg:   &cfg,
		prune: cfg.pruning(),
		sizes: d.GroupSizes(),
		list:  topk.New(cfg.TopK, cfg.scoreFloor()).WithRecorder(cfg.Metrics).WithTracer(cfg.Trace),
		table: make(pruneTable),
		rec:   cfg.Metrics,
		tr:    cfg.Trace,
	}
	// The per-(attr,value) bitmaps and per-group masks are cached on the
	// dataset itself (dataset.Index): the first Mine against a dataset
	// builds them, every later call — and every serve job sharing the
	// registry entry — reuses them. Every candidate cover below is an
	// intersection of these and every support count a popcount against a
	// group mask.
	m.index = SharedIndex(d, m.rec)
	m.memo = newSupportMemo(d, m.index, m.sizes)
	m.scratch = make([]sdadScratch, max(cfg.Workers, 1))
	attrs := cfg.Attrs
	if attrs == nil {
		attrs = make([]int, d.NumAttrs())
		for i := range attrs {
			attrs[i] = i
		}
	}
	schedule := stats.NewBonferroniSchedule(cfg.Alpha)

	// Level 1 extends the root: the empty itemset, which covers every row.
	frontier, cut := m.expand(1, []node{{lastAttr: -1}}, attrs)
	var interrupted error
	for level := 1; level <= cfg.MaxDepth && len(frontier)+cut > 0; level++ {
		if err := ctx.Err(); err != nil {
			interrupted = err
			break
		}
		survivors := m.processLevel(level, frontier, cut, schedule)
		if level == cfg.MaxDepth {
			break
		}
		frontier, cut = m.expand(level+1, survivors, attrs)
	}

	if interrupted == nil {
		// Cancellation can also land mid-level (the per-node and SDAD-CS
		// checks stop work early without reporting through the level loop);
		// surface it so callers can tell a partial result from a full one.
		interrupted = ctx.Err()
	}

	contrasts := m.list.Contrasts()
	res := Result{Stats: m.stats}
	if cfg.SkipMeaningfulFilter {
		res.Contrasts = contrasts
	} else {
		// The filter shares the search's support memo: subsets the CLT
		// rule already counted are not recounted.
		meaning := classify(d, contrasts, cfg.Alpha, m.memo)
		for i, c := range contrasts {
			if m.tr.Enabled() {
				m.tr.Filter(c.Set, meaning[i].verdict(), c.Score)
			}
			if meaning[i].Meaningful() {
				res.Contrasts = append(res.Contrasts, c)
				res.Meaning = append(res.Meaning, meaning[i])
			} else {
				res.Stats.FilteredOut++
			}
		}
	}
	if m.tr.Enabled() {
		m.rec.TraceVolume(m.tr.Stats())
		res.Trace = m.tr.Snapshot()
	}
	res.Metrics = m.snapshot()
	return res, interrupted
}

// miner holds the shared state of one Mine call.
type miner struct {
	// ctx is the mining context: checked between levels, between nodes
	// inside a level, and inside the SDAD-CS recursion and merge loop so a
	// cancelled job stops promptly even mid-level. nil means "never
	// cancelled" (direct construction in tests).
	ctx   context.Context
	d     *dataset.Dataset
	cfg   *Config
	prune Pruning
	sizes []int
	list  *topk.List
	table pruneTable
	// memo is the Mine's subset-support cache, shared by every worker and
	// the meaningfulness filter; it dies with the Mine.
	memo *supportMemo
	// scratch[w] is worker w's SDAD-CS buffers.
	scratch []sdadScratch
	stats   Stats
	// index is the support-counting engine: one bitmap per categorical
	// value and per group (the SciCSM representation, the paper's ref
	// [29]), cached on the dataset and built at most once per dataset ever
	// (bitmap.Shared). It is immutable after construction, so per-level
	// workers — and other concurrent Mine calls over the same dataset —
	// share it without locks.
	index *bitmap.Index
	// rec is the optional instrumentation sink (nil = disabled). It is
	// shared with every per-level worker goroutine; all its operations
	// are atomic.
	rec *metrics.Recorder
	// tr is the optional decision-event sink (nil = disabled); like rec it
	// is shared by all workers and lock-free.
	tr *trace.Tracer
}

// cancelled reports whether a mining context has been cancelled; a nil
// context never is. One pointer check plus ctx.Err() keeps it cheap
// enough for the per-chunk check of ForEach.
func cancelled(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }

// SharedIndex returns the dataset's bitmap index (bitmap.Shared), built on
// the first call for d, and counts on rec either the bitmaps built or one
// index reuse. Every miner attaches its index through it.
func SharedIndex(d *dataset.Dataset, rec *metrics.Recorder) *bitmap.Index {
	ix, built := bitmap.Shared(d)
	if built {
		rec.Add(metrics.BitmapBuilds, ix.NumBitmaps())
	} else {
		rec.Add(metrics.BitmapIndexReuses, 1)
	}
	return ix
}

// snapshot captures the final metrics state for Result, or nil when
// instrumentation is disabled.
func (m *miner) snapshot() *metrics.Snapshot {
	if m.rec == nil {
		return nil
	}
	s := m.rec.Snapshot()
	return &s
}

// node is one entry of the combination frontier: a categorical value
// context, the rows it covers, and the continuous attributes to be
// discretized jointly. catSet.Len() + len(contAttrs) equals the level.
// Every node is a candidate the level must evaluate: generation builds no
// node for a candidate with an empty cover or one the lookup table cuts.
//
// The cover is lazy: it is base ∧ val over the row universe, where a nil
// operand stands for every row. base is the parent's materialized cover
// and val the index value bitmap of the node's last categorical item (nil
// for a continuous extension). Expansion only tests base ∧ val for a
// common row; the level workers count it without writing it, and write it
// out only for a node that will have children (survivor). A survivor
// carries its materialized cover as base with a nil val.
type node struct {
	catSet    pattern.Itemset
	base, val *bitmap.Set
	contAttrs []int
	lastAttr  int
}

// nodeOutcome is the result of evaluating one node.
type nodeOutcome struct {
	contrasts []pattern.Contrast
	// record: insert the node's own itemset into the lookup table (a
	// categorical node); inserts: the spaces an SDAD-CS run recorded.
	record   bool
	inserts  []pattern.Itemset
	survived bool
	// cover is the materialized cover of a survivor below MaxDepth (nil
	// when that cover is every row).
	cover *bitmap.Set
	stats Stats
}

// expand generates the frontier of level from the survivors of the level
// before: every survivor extended with every attribute after its last
// (each combination visited exactly once). It builds only the candidates
// the level must evaluate:
//   - a categorical extension whose cover is empty is absent: the level
//     never sees it. At level 1 that is a domain code no row holds
//     (dataset.Materialize keeps the source's domains);
//   - a categorical-only candidate that the §4.1 lookup table cuts is
//     decided here, with its prune hit and trace event, and comes back
//     only in the count cut, which processLevel adds to the level's nodes,
//     its Bonferroni denominator and Stats.SpacesPruned;
//   - every other candidate becomes a node. A categorical child's cover
//     stays the lazy pair (parent cover, value bitmap), and a continuous
//     child shares its parent's cover. A level-1 categorical cover is
//     thus the value's index bitmap itself (shared, never mutated), and a
//     level-1 continuous node covers every row.
//
// Generation runs on the level's workers in two passes over the
// survivors. The first marks the candidates to build and counts each
// survivor's built and cut ones. The second fills one exact-size frontier,
// each survivor's children at its prefix offset, so the frontier is in
// generation order for any worker count.
func (m *miner) expand(level int, nodes []node, attrs []int) (frontier []node, cut int) {
	// Survivor i's candidates take the slots [slot[i], slot[i+1]) of build.
	slot := make([]int, len(nodes)+1)
	for i := range nodes {
		n := 0
		m.eachExtension(&nodes[i], attrs, func(int, int) { n++ })
		slot[i+1] = slot[i] + n
	}
	build := make([]bool, slot[len(nodes)])
	// offset[i+1] counts survivor i's built candidates until the prefix sum
	// turns it into the frontier offset of survivor i+1's children.
	offset := make([]int, len(nodes)+1)
	cuts := make([]int, len(nodes))
	ForEach(m.ctx, m.cfg.Workers, level, len(nodes), func(worker, i int) {
		nd, s := &nodes[i], slot[i]
		probe := m.prune.LookupTable && len(nd.contAttrs) == 0
		m.eachExtension(nd, attrs, func(attr, code int) {
			switch {
			case code >= 0 && !nd.covers(m.index.Value(attr, code)):
			case code >= 0 && probe && m.cuts(level, worker, nd.catSet, attr, code):
				cuts[i]++
			default:
				build[s] = true
				offset[i+1]++
			}
			s++
		})
	})
	for i := range nodes {
		offset[i+1] += offset[i]
		cut += cuts[i]
	}
	frontier = make([]node, offset[len(nodes)])
	ForEach(m.ctx, m.cfg.Workers, level, len(nodes), func(_, i int) {
		nd, s, o := &nodes[i], slot[i], offset[i]
		m.eachExtension(nd, attrs, func(attr, code int) {
			if build[s] {
				frontier[o] = m.child(nd, attr, code)
				o++
			}
			s++
		})
	})
	return frontier, cut
}

// eachExtension calls fn for every candidate extending nd, in generation
// order: fn(attr, code) for each code of a later categorical attribute,
// fn(attr, -1) for a later continuous one.
func (m *miner) eachExtension(nd *node, attrs []int, fn func(attr, code int)) {
	for _, attr := range attrs {
		switch {
		case attr <= nd.lastAttr:
		case m.d.Attr(attr).Kind == dataset.Categorical:
			for code := range m.d.Domain(attr) {
				fn(attr, code)
			}
		default:
			fn(attr, -1)
		}
	}
}

// covers reports whether the survivor nd and the value bitmap val share a
// row: whether nd's categorical extension by val is present.
func (nd *node) covers(val *bitmap.Set) bool {
	if nd.base == nil {
		return val.Any()
	}
	return nd.base.AndAny(val)
}

// cuts reports whether the lookup table cuts the candidate set ∪
// {(attr, code)} of level, and records a cut: its prune hit and, when
// tracing, its prune event naming the subset that cut it.
func (m *miner) cuts(level, worker int, set pattern.Itemset, attr, code int) bool {
	it := pattern.CatItem(attr, code)
	mask, hit := m.table.prunedSubset(set, it)
	if !hit {
		return false
	}
	m.rec.PruneHit(metrics.PruneLookupTable)
	if m.tr.Enabled() {
		cand := set.With(it)
		m.tr.Prune(level, worker, cand,
			metrics.PruneLookupTable.String()+":"+subsetKey(cand, mask), 0, 0)
	}
	return true
}

// child builds nd's candidate extension by (attr, code), code -1 for a
// continuous attribute.
func (m *miner) child(nd *node, attr, code int) node {
	if code < 0 {
		conts := make([]int, len(nd.contAttrs), len(nd.contAttrs)+1)
		copy(conts, nd.contAttrs)
		return node{catSet: nd.catSet, base: nd.base, contAttrs: append(conts, attr), lastAttr: attr}
	}
	return node{
		catSet:    nd.catSet.With(pattern.CatItem(attr, code)),
		base:      nd.base,
		val:       m.index.Value(attr, code),
		contAttrs: nd.contAttrs,
		lastAttr:  attr,
	}
}

// materialize writes out a node's cover base ∧ val. When one operand is
// nil (every row) the cover aliases the other, with no copy.
func (m *miner) materialize(nd node) *bitmap.Set {
	switch {
	case nd.base == nil:
		return nd.val
	case nd.val == nil:
		return nd.base
	}
	m.rec.Add(metrics.BitmapAndOps, 1)
	return nd.base.And(nd.val)
}

// processLevel evaluates all nodes of one level — in parallel when
// cfg.Workers > 1 (the §6 scaling strategy) — then applies the buffered
// lookup-table inserts and top-k additions in node order, so results are
// identical for any worker count. cut counts the level's present
// candidates that generation cut by the lookup table: with the nodes, they
// make the level's Bonferroni denominator and its node count, and each is
// a pruned space. At MaxDepth no node has children, so no survivor is
// returned.
func (m *miner) processLevel(level int, frontier []node, cut int, schedule *stats.BonferroniSchedule) []node {
	outcomes := make([]nodeOutcome, len(frontier))

	var levelStart time.Time
	var levelTS int64
	if m.rec.Enabled() || m.tr.Enabled() {
		levelStart = time.Now()
		levelTS = m.tr.Now()
	}

	present := len(frontier) + cut
	alpha := schedule.LevelAlpha(present)
	crit := chiSquareCrit(alpha, len(m.sizes))
	threshold := m.list.Threshold()
	ForEach(m.ctx, m.cfg.Workers, level, len(frontier), func(worker, i int) {
		outcomes[i] = m.evaluateTimed(level, worker, frontier[i], alpha, crit, threshold)
	})

	m.stats.SpacesPruned += cut
	var survivors []node
	surviving, contrasts := 0, 0
	for i, o := range outcomes {
		m.stats.add(o.stats)
		contrasts += len(o.contrasts)
		for _, c := range o.contrasts {
			m.list.Add(c)
		}
		// Only later levels read the lookup table, so the last level's
		// inserts would be dead work.
		if level < m.cfg.MaxDepth {
			if o.record {
				m.table.insert(frontier[i].catSet)
			}
			for _, set := range o.inserts {
				m.table.insert(set)
			}
		}
		if o.survived {
			surviving++
			if level < m.cfg.MaxDepth {
				survivors = append(survivors, frontier[i].parent(o.cover))
			}
		}
	}
	if m.rec.Enabled() {
		m.rec.LevelObserve(level, present, surviving, contrasts,
			m.cfg.Workers, time.Since(levelStart))
	}
	if m.tr.Enabled() {
		m.tr.Level(levelTS, level, present, surviving, time.Since(levelStart))
	}
	return survivors
}

// parent returns the survivor nd as the parent of the next expansion: its
// materialized cover becomes the base its children extend.
func (nd node) parent(cover *bitmap.Set) node {
	return node{catSet: nd.catSet, base: cover, contAttrs: nd.contAttrs, lastAttr: nd.lastAttr}
}

// ForEach calls fn(worker, i) for every i in [0, n): inline with one
// worker, otherwise on min(workers, n) goroutines that claim contiguous
// chunks of indices from an atomic cursor. It is the one worker fan-out of
// every levelwise search. Cancellation of ctx (nil: never cancelled) is
// checked once per chunk; an unclaimed index is left untouched. Each
// worker goroutine runs under pprof labels (sdadcs_level, sdadcs_worker),
// so CPU profiles attribute samples to search levels. Callers write
// results into per-index slots, so nothing depends on the worker count.
func ForEach(ctx context.Context, workers, level, n int, fn func(worker, i int)) {
	workers = max(min(workers, n), 1)
	chunk := max(1, n/(8*workers))
	var cursor atomic.Int64
	loop := func(worker int) {
		for {
			end := int(cursor.Add(int64(chunk)))
			start := end - chunk
			if start >= n || cancelled(ctx) {
				return
			}
			for i := start; i < min(end, n); i++ {
				fn(worker, i)
			}
		}
	}
	if workers == 1 {
		loop(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			labels := pprof.Labels(
				"sdadcs_level", strconv.Itoa(level),
				"sdadcs_worker", strconv.Itoa(worker),
			)
			pprof.Do(context.Background(), labels, func(context.Context) { loop(worker) })
		}(w)
	}
	wg.Wait()
}

// evaluateTimed wraps evaluate with the per-node latency observation; the
// disabled-recorder path skips both clock reads.
func (m *miner) evaluateTimed(level, worker int, nd node, alpha, crit, threshold float64) nodeOutcome {
	if m.rec == nil {
		return m.evaluate(level, worker, nd, alpha, crit, threshold)
	}
	start := time.Now()
	o := m.evaluate(level, worker, nd, alpha, crit, threshold)
	m.rec.NodeEval(level, time.Since(start))
	return o
}

// evaluate processes one node: a pure categorical itemset directly, a
// mixed/continuous combination via SDAD-CS. It must not touch shared
// mutable state (it runs concurrently); memo access is the one exception,
// guarded by supportMemo's mutex (internal/core/prune.go) — all shared
// access goes through supportMemo.supports, which locks around its cache.
// crit is the level's χ² critical value at alpha; worker selects the
// goroutine's SDAD-CS scratch.
func (m *miner) evaluate(level, worker int, nd node, alpha, crit, threshold float64) nodeOutcome {
	if len(nd.contAttrs) == 0 {
		return m.evaluateCategorical(level, worker, nd, alpha, crit)
	}
	run := &sdadRun{
		ctx:       m.ctx,
		d:         m.d,
		cfg:       m.cfg,
		prune:     m.prune,
		contAttrs: nd.contAttrs,
		alpha:     alpha,
		crit:      crit,
		threshold: threshold,
		memo:      m.memo,
		scratch:   &m.scratch[worker],
		table:     m.table,
		sizes:     m.sizes,
		totalRows: m.d.Rows(),
		rec:       m.rec,
		tr:        m.tr,
		worker:    worker,
	}
	cover := m.materialize(nd)
	contrasts := run.run(nd.catSet, m.coverView(worker, cover))
	o := nodeOutcome{
		contrasts: contrasts,
		inserts:   run.inserts,
		survived:  run.alive,
		stats:     run.stats,
	}
	if o.survived && level < m.cfg.MaxDepth {
		o.cover = cover
	}
	return o
}

// coverView returns a materialized cover as a row view. SDAD-CS box
// interiors need raw row indices for median computation, so a bitmap
// cover converts to a sorted row slice exactly when (and only when) a
// continuous combination is handed to Algorithm 1. The rows go into the
// worker's scratch, so the view lasts until the worker's next run.
func (m *miner) coverView(worker int, cover *bitmap.Set) dataset.View {
	if cover == nil {
		return m.d.All()
	}
	m.rec.Add(metrics.BitmapLazyRows, 1)
	s := &m.scratch[worker]
	s.cover = cover.AppendRows(s.cover[:0])
	return m.d.Restrict(s.cover)
}

// groupCounts counts the node's lazy cover per group: one fused pass of
// base ∧ val against every group mask, with no intersection written.
func (m *miner) groupCounts(nd node) []int {
	// The counts slice escapes into pattern.Supports, so it is freshly
	// allocated.
	counts := make([]int, len(m.sizes))
	a, b := nd.base, nd.val
	if a == nil {
		a, b = b, nil
	}
	if a == nil {
		// Full-universe cover: the group sizes are its counts.
		copy(counts, m.sizes)
		return counts
	}
	if b != nil {
		m.rec.Add(metrics.BitmapAndOps, 1)
	}
	m.rec.Add(metrics.BitmapPopcounts, len(m.sizes))
	m.index.AndGroupCountsInto(a, b, counts)
	return counts
}

// evaluateCategorical handles a categorical-only node (STUCCO semantics).
// The lookup table has already been probed: generation builds no node the
// table cuts (expand).
func (m *miner) evaluateCategorical(level, worker int, nd node, alpha, crit float64) nodeOutcome {
	var o nodeOutcome
	o.stats.PartitionsEvaluated++
	counts := m.groupCounts(nd)
	sup := pattern.CountsToSupports(counts, m.sizes)
	if m.tr.Enabled() {
		m.tr.Node(level, worker, nd.catSet, sup.TotalCount(), counts)
	}
	dec := evaluatePruning(m.prune, nd.catSet, sup, m.cfg.Delta, alpha, crit,
		m.d.Rows(), m.memo, m.rec, m.tr, level, worker)
	o.record = dec.Record && m.prune.LookupTable
	if dec.SkipContrast && dec.SkipChildren {
		o.stats.SpacesPruned++
		return o
	}
	o.survived = !dec.SkipChildren
	if o.survived && level < m.cfg.MaxDepth {
		o.cover = m.materialize(nd)
	}
	if !dec.SkipContrast && sup.MaxDiff() > m.cfg.Delta {
		test, err := stats.ChiSquare2xK(sup.Count, m.sizes)
		significant := err == nil && test.P < alpha
		switch {
		case significant && m.cfg.ExpectedCountGate && test.MinExpected < 5:
			// Significant, but the test is invalid on the uncovered rows.
			if m.tr.Enabled() {
				m.tr.Prune(level, worker, nd.catSet, "expected_count_gate", test.MinExpected, 5)
			}
		case significant:
			if m.tr.Enabled() {
				m.tr.Emit(level, worker, nd.catSet,
					m.cfg.Measure.Eval(sup), test.Statistic, test.P, counts)
			}
			o.contrasts = append(o.contrasts, pattern.Contrast{
				Set:      nd.catSet,
				Supports: sup,
				Score:    m.cfg.Measure.Eval(sup),
				ChiSq:    test.Statistic,
				P:        test.P,
			})
		case m.tr.Enabled():
			// Large but not significant: the decision the explain path
			// reports for patterns that never reached the candidate stream.
			m.tr.Prune(level, worker, nd.catSet, "not_significant", test.P, alpha)
		}
	} else if !dec.SkipContrast && m.tr.Enabled() {
		m.tr.Prune(level, worker, nd.catSet, "not_large", sup.MaxDiff(), m.cfg.Delta)
	}
	return o
}
