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
	ix, built := bitmap.Shared(d)
	m.index = ix
	m.memo = newSupportMemo(d, ix)
	m.scratch = make([]sdadScratch, max(cfg.Workers, 1))
	if built {
		m.rec.BitmapBuilds(ix.NumBitmaps())
	} else {
		m.rec.BitmapIndexReuse()
	}
	attrs := cfg.Attrs
	if attrs == nil {
		attrs = make([]int, d.NumAttrs())
		for i := range attrs {
			attrs[i] = i
		}
	}
	schedule := stats.NewBonferroniSchedule(cfg.Alpha)

	frontier := m.levelOne(attrs)
	var interrupted error
	if cfg.DFS {
		// Depth-first ablation: the per-level candidate count is unknown
		// up front, so the Bonferroni adjustment can only use the level-1
		// width — one of the paper's arguments for levelwise search.
		alpha := schedule.LevelAlpha(len(frontier))
		m.mineDFS(frontier, attrs, 1, alpha, chiSquareCrit(alpha, len(m.sizes)))
	} else {
		for level := 1; level <= cfg.MaxDepth && len(frontier) > 0; level++ {
			if err := ctx.Err(); err != nil {
				interrupted = err
				break
			}
			survivors := m.processLevel(level, frontier, schedule)
			if level == cfg.MaxDepth {
				break
			}
			frontier = m.expand(survivors, attrs)
		}
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
				m.tr.Filter(c.Set.Key(), meaning[i].verdict(), c.Score)
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

// cancelled reports whether the mining context has been cancelled; a nil
// context never is. One atomic-ish pointer check plus ctx.Err() keeps it
// cheap enough for per-node and per-recursion-round call sites.
func (m *miner) cancelled() bool {
	return m.ctx != nil && m.ctx.Err() != nil
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
//
// The cover is lazy: it is base ∧ val over the row universe, where a nil
// operand stands for every row. base is the parent's materialized cover
// and val the index value bitmap of the node's last categorical item (nil
// for a continuous extension). Expansion only builds itemsets; the level
// workers count base ∧ val without writing it, and write it out only for
// a node that will have children (survivor). A survivor carries its
// materialized cover as base with a nil val.
type node struct {
	catSet    pattern.Itemset
	base, val *bitmap.Set
	contAttrs []int
	lastAttr  int
}

// nodeOutcome is the result of evaluating one node.
type nodeOutcome struct {
	// absent: the node is a categorical extension whose cover is empty.
	// It takes no part in the level: no stats, no frontier count, no
	// trace event and no lookup-table insert.
	absent    bool
	contrasts []pattern.Contrast
	inserts   []string
	survived  bool
	// cover is the materialized cover of a survivor below MaxDepth (nil
	// when that cover is every row).
	cover *bitmap.Set
	stats Stats
}

// levelOne builds the initial frontier: one node per categorical value and
// one per continuous attribute. A level-1 categorical cover is the value's
// index bitmap itself (shared, never mutated); a continuous node covers
// the full universe.
func (m *miner) levelOne(attrs []int) []node {
	var out []node
	for _, attr := range attrs {
		if m.d.Attr(attr).Kind == dataset.Categorical {
			for code := range m.d.Domain(attr) {
				out = append(out, node{
					catSet:   pattern.NewItemset(pattern.CatItem(attr, code)),
					val:      m.index.Value(attr, code),
					lastAttr: attr,
				})
			}
		} else {
			out = append(out, node{
				catSet:    pattern.NewItemset(),
				contAttrs: []int{attr},
				lastAttr:  attr,
			})
		}
	}
	return out
}

// expand generates the next level: every survivor extended with every
// attribute after its last (each combination visited exactly once). It
// builds itemsets only: a categorical child's cover stays the lazy pair
// (parent cover, value bitmap), and a continuous child shares its
// parent's cover.
func (m *miner) expand(nodes []node, attrs []int) []node {
	// Size the level up front: one child per later categorical code and
	// one per later continuous attribute.
	size := 0
	for i := range nodes {
		for _, attr := range attrs {
			switch {
			case attr <= nodes[i].lastAttr:
			case m.d.Attr(attr).Kind == dataset.Categorical:
				size += len(m.d.Domain(attr))
			default:
				size++
			}
		}
	}
	out := make([]node, 0, size)
	for i := range nodes {
		nd := &nodes[i]
		for _, attr := range attrs {
			if attr <= nd.lastAttr {
				continue
			}
			if m.d.Attr(attr).Kind == dataset.Categorical {
				for code := range m.d.Domain(attr) {
					out = append(out, node{
						catSet:    nd.catSet.With(pattern.CatItem(attr, code)),
						base:      nd.base,
						val:       m.index.Value(attr, code),
						contAttrs: nd.contAttrs,
						lastAttr:  attr,
					})
				}
			} else {
				conts := make([]int, len(nd.contAttrs), len(nd.contAttrs)+1)
				copy(conts, nd.contAttrs)
				out = append(out, node{
					catSet:    nd.catSet,
					base:      nd.base,
					contAttrs: append(conts, attr),
					lastAttr:  attr,
				})
			}
		}
	}
	return out
}

// absent reports whether a node is a categorical extension with an empty
// cover — a child the search never counts. Level-1 nodes are never absent:
// the first level holds every domain code.
func (nd node) absent(level int) bool {
	switch {
	case level == 1 || nd.val == nil:
		return false
	case nd.base == nil:
		return !nd.val.Any()
	default:
		return !nd.base.AndAny(nd.val)
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
	m.rec.BitmapAnds(1)
	return nd.base.And(nd.val)
}

// processLevel evaluates all nodes of one level — in parallel when
// cfg.Workers > 1 (the §6 scaling strategy) — then applies the buffered
// lookup-table inserts and top-k additions in node order, so results are
// identical for any worker count. Absent children are found first, because
// the level's Bonferroni α counts the present nodes only. At MaxDepth no
// node has children, so no survivor is returned.
func (m *miner) processLevel(level int, frontier []node, schedule *stats.BonferroniSchedule) []node {
	outcomes := make([]nodeOutcome, len(frontier))

	var levelStart time.Time
	var levelTS int64
	if m.rec.Enabled() || m.tr.Enabled() {
		levelStart = time.Now()
		levelTS = m.tr.Now()
	}

	present := len(frontier)
	if level > 1 {
		m.forEachNode(level, len(frontier), func(_, i int) {
			outcomes[i].absent = frontier[i].absent(level)
		})
		for i := range outcomes {
			if outcomes[i].absent {
				present--
			}
		}
	}
	alpha := schedule.LevelAlpha(present)
	crit := chiSquareCrit(alpha, len(m.sizes))
	threshold := m.list.Threshold()
	m.forEachNode(level, len(frontier), func(worker, i int) {
		if !outcomes[i].absent {
			outcomes[i] = m.evaluateTimed(level, worker, frontier[i], alpha, crit, threshold)
		}
	})

	var survivors []node
	surviving, contrasts := 0, 0
	for i, o := range outcomes {
		if o.absent {
			continue
		}
		m.stats.add(o.stats)
		contrasts += len(o.contrasts)
		for _, c := range o.contrasts {
			m.list.Add(c)
		}
		for _, key := range o.inserts {
			m.table[key] = struct{}{}
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

// forEachNode calls fn(worker, i) for every i in [0, n): inline with one
// worker, otherwise on cfg.Workers goroutines that claim contiguous chunks
// of indices from an atomic cursor. Cancellation is checked once per
// chunk; an unclaimed index is left untouched.
func (m *miner) forEachNode(level, n int, fn func(worker, i int)) {
	workers := max(m.cfg.Workers, 1)
	chunk := max(1, n/(8*workers))
	var cursor atomic.Int64
	loop := func(worker int) {
		for {
			end := int(cursor.Add(int64(chunk)))
			start := end - chunk
			if start >= n || m.cancelled() {
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
			if m.cfg.PprofLabels {
				labels := pprof.Labels(
					"sdadcs_level", strconv.Itoa(level),
					"sdadcs_worker", strconv.Itoa(worker),
				)
				pprof.Do(context.Background(), labels, func(context.Context) { loop(worker) })
			} else {
				loop(worker)
			}
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

// mineDFS explores nodes pre-order: each node is evaluated and its
// children fully explored before its siblings. Lookup-table inserts and
// top-k additions apply immediately. Absent children are skipped and
// covers materialized by the same rules as the levelwise order.
func (m *miner) mineDFS(nodes []node, attrs []int, level int, alpha, crit float64) {
	for _, nd := range nodes {
		if m.cancelled() {
			return
		}
		if nd.absent(level) {
			continue
		}
		o := m.evaluateTimed(level, 0, nd, alpha, crit, m.list.Threshold())
		m.stats.add(o.stats)
		for _, c := range o.contrasts {
			m.list.Add(c)
		}
		for _, key := range o.inserts {
			m.table[key] = struct{}{}
		}
		if o.survived && level < m.cfg.MaxDepth {
			m.mineDFS(m.expand([]node{nd.parent(o.cover)}, attrs), attrs, level+1, alpha, crit)
		}
	}
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
	contrasts := run.run(nd.catSet, m.coverView(cover))
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
// continuous combination is handed to Algorithm 1.
func (m *miner) coverView(cover *bitmap.Set) dataset.View {
	if cover == nil {
		return m.d.All()
	}
	m.rec.BitmapMaterialize()
	return m.d.Restrict(cover.Rows())
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
		m.rec.BitmapAnds(1)
	}
	m.rec.BitmapPopcounts(len(m.sizes))
	m.index.AndGroupCountsInto(a, b, counts)
	return counts
}

// evaluateCategorical handles a categorical-only node (STUCCO semantics).
func (m *miner) evaluateCategorical(level, worker int, nd node, alpha, crit float64) nodeOutcome {
	var o nodeOutcome
	if m.prune.LookupTable {
		if subKey, hit := m.table.prunedSubset(nd.catSet); hit {
			m.rec.PruneHit(metrics.PruneLookupTable)
			if m.tr.Enabled() {
				m.tr.Prune(level, worker, nd.catSet.Key(),
					metrics.PruneLookupTable.String()+":"+subKey, 0, 0)
			}
			o.stats.SpacesPruned++
			return o
		}
	}
	o.stats.PartitionsEvaluated++
	counts := m.groupCounts(nd)
	sup := pattern.CountsToSupports(counts, m.sizes)
	if m.tr.Enabled() {
		m.tr.Node(level, worker, nd.catSet.Key(), sup.TotalCount(), counts)
	}
	dec := evaluatePruning(m.prune, nd.catSet, sup, m.cfg.Delta, alpha, crit,
		m.d.Rows(), m.memo.supports, m.rec, m.tr, level, worker)
	if dec.record && m.prune.LookupTable {
		o.inserts = append(o.inserts, nd.catSet.Key())
	}
	if dec.skipContrast && dec.skipChildren {
		o.stats.SpacesPruned++
		return o
	}
	o.survived = !dec.skipChildren
	if o.survived && level < m.cfg.MaxDepth {
		o.cover = m.materialize(nd)
	}
	if !dec.skipContrast && sup.MaxDiff() > m.cfg.Delta {
		if test, err := stats.ChiSquare2xK(sup.Count, m.sizes); err == nil && test.P < alpha {
			if m.tr.Enabled() {
				m.tr.Emit(level, worker, nd.catSet.Key(),
					m.cfg.Measure.Eval(sup), test.Statistic, test.P, counts)
			}
			o.contrasts = append(o.contrasts, pattern.Contrast{
				Set:      nd.catSet,
				Supports: sup,
				Score:    m.cfg.Measure.Eval(sup),
				ChiSq:    test.Statistic,
				P:        test.P,
			})
		} else if m.tr.Enabled() {
			// Large but not significant: the decision the explain path
			// reports for patterns that never reached the candidate stream.
			m.tr.Prune(level, worker, nd.catSet.Key(), "not_significant", test.P, alpha)
		}
	} else if !dec.skipContrast && m.tr.Enabled() {
		m.tr.Prune(level, worker, nd.catSet.Key(), "not_large", sup.MaxDiff(), m.cfg.Delta)
	}
	return o
}
