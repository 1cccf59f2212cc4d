package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
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
		memo:  newSupportMemo(d),
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
	m.arena = bitmap.NewArena(d.Rows())
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
		m.mineDFS(frontier, attrs, 1, alpha)
	} else {
		for level := 1; level <= cfg.MaxDepth && len(frontier) > 0; level++ {
			if err := ctx.Err(); err != nil {
				interrupted = err
				break
			}
			alpha := schedule.LevelAlpha(len(frontier))
			survivors := m.processLevel(level, frontier, alpha)
			if level == cfg.MaxDepth {
				break
			}
			next := m.expand(survivors, attrs)
			// Double-buffer the frontier: the dead level's node slice backs
			// the next expansion's output.
			m.spare = frontier[:0]
			frontier = next
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
		meaning := Classify(d, contrasts, cfg.Alpha)
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
	st := m.arena.Stats()
	m.rec.ArenaObserve(st.Fresh, st.Reused, st.Released)
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
	memo  *supportMemo
	stats Stats
	// index is the support-counting engine: one bitmap per categorical
	// value and per group (the SciCSM representation, the paper's ref
	// [29]), cached on the dataset and built at most once per dataset ever
	// (bitmap.Shared). It is immutable after construction, so per-level
	// workers — and other concurrent Mine calls over the same dataset —
	// share it without locks.
	index *bitmap.Index
	// arena recycles cover word blocks across the frontier's AND cascade.
	// Only the serial expansion step touches it; per-level workers never
	// allocate or release covers.
	arena *bitmap.Arena
	// spare is the previous level's frontier slice, recycled as the next
	// expand's output buffer (double-buffered levelwise frontiers).
	spare []node
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
// The cover is a bitmap over the row universe; nil bits = all rows.
type node struct {
	catSet    pattern.Itemset
	bits      *bitmap.Set
	contAttrs []int
	lastAttr  int
	// owned marks bits as an arena-allocated cover exclusive to this node
	// (a fused-AND result). Shared index value bitmaps and covers aliased
	// by a continuous extension are never owned, so only owned covers are
	// ever recycled.
	owned bool
}

// nodeOutcome is the result of evaluating one node.
type nodeOutcome struct {
	contrasts []pattern.Contrast
	inserts   []string
	survived  bool
	stats     Stats
}

// levelOne builds the initial frontier: one node per categorical value and
// one per continuous attribute. A level-1 categorical cover is the value's
// index bitmap itself (shared, never mutated); a continuous node covers
// the full universe (nil bits).
func (m *miner) levelOne(attrs []int) []node {
	var out []node
	for _, attr := range attrs {
		if m.d.Attr(attr).Kind == dataset.Categorical {
			for code := range m.d.Domain(attr) {
				out = append(out, node{
					catSet:   pattern.NewItemset(pattern.CatItem(attr, code)),
					bits:     m.index.Value(attr, code),
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

// expand generates the next level: every surviving node extended with
// every attribute after its last (each combination visited exactly once).
// A parent's categorical extensions are computed by the batched sibling
// kernel: one fused AND+popcount pass shared by every sibling code, with
// covers drawn from (and empty covers recycled to) the arena. Empty covers
// are dropped, and a parent's own cover is recycled as soon as its last
// child is built — unless a continuous extension aliases it.
func (m *miner) expand(nodes []node, attrs []int) []node {
	out := m.spare[:0]
	m.spare = nil
	for i := range nodes {
		nd := nodes[i]
		// escaped: a continuous extension shares the parent cover by
		// reference, so the cover outlives this expansion round.
		escaped := false
		for _, attr := range attrs {
			if attr <= nd.lastAttr {
				continue
			}
			if m.d.Attr(attr).Kind == dataset.Categorical {
				if nd.bits != nil {
					m.rec.BitmapAnds(len(m.d.Domain(attr)))
					m.index.ChildCovers(nd.bits, attr, m.arena,
						func(code int, cover *bitmap.Set, count int) {
							out = append(out, node{
								catSet:    nd.catSet.With(pattern.CatItem(attr, code)),
								contAttrs: nd.contAttrs,
								lastAttr:  attr,
								bits:      cover,
								owned:     true,
							})
						})
				} else {
					// Parent covers every row: each child cover is the
					// (shared, immutable) value bitmap itself.
					for code := range m.d.Domain(attr) {
						val := m.index.Value(attr, code)
						if !val.Any() {
							continue
						}
						out = append(out, node{
							catSet:    nd.catSet.With(pattern.CatItem(attr, code)),
							contAttrs: nd.contAttrs,
							lastAttr:  attr,
							bits:      val,
						})
					}
				}
			} else {
				conts := make([]int, len(nd.contAttrs), len(nd.contAttrs)+1)
				copy(conts, nd.contAttrs)
				conts = append(conts, attr)
				if nd.bits != nil {
					escaped = true
				}
				out = append(out, node{
					catSet:    nd.catSet,
					bits:      nd.bits,
					contAttrs: conts,
					lastAttr:  attr,
				})
			}
		}
		if nd.owned && !escaped {
			m.arena.Put(nd.bits)
		}
	}
	return out
}

// processLevel evaluates all nodes of one level — in parallel when
// cfg.Workers > 1 (the §6 scaling strategy) — then applies the buffered
// lookup-table inserts and top-k additions in node order, so results are
// identical for any worker count.
func (m *miner) processLevel(level int, frontier []node, alpha float64) []node {
	threshold := m.list.Threshold()
	outcomes := make([]nodeOutcome, len(frontier))

	var levelStart time.Time
	var levelTS int64
	if m.rec.Enabled() || m.tr.Enabled() {
		levelStart = time.Now()
		levelTS = m.tr.Now()
	}

	if m.cfg.Workers <= 1 {
		for i := range frontier {
			if m.cancelled() {
				break
			}
			outcomes[i] = m.evaluateTimed(level, 0, frontier[i], alpha, threshold)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < m.cfg.Workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				loop := func() {
					for i := range work {
						if m.cancelled() {
							continue // keep draining so the producer never blocks
						}
						outcomes[i] = m.evaluateTimed(level, worker, frontier[i], alpha, threshold)
					}
				}
				if m.cfg.PprofLabels {
					labels := pprof.Labels(
						"sdadcs_level", strconv.Itoa(level),
						"sdadcs_worker", strconv.Itoa(worker),
					)
					pprof.Do(context.Background(), labels, func(context.Context) { loop() })
				} else {
					loop()
				}
			}(w)
		}
		for i := range frontier {
			work <- i
		}
		close(work)
		wg.Wait()
	}

	var survivors []node
	contrasts := 0
	for i, o := range outcomes {
		m.stats.add(o.stats)
		contrasts += len(o.contrasts)
		for _, c := range o.contrasts {
			m.list.Add(c)
		}
		for _, key := range o.inserts {
			m.table[key] = struct{}{}
		}
		if o.survived {
			survivors = append(survivors, frontier[i])
		} else if frontier[i].owned {
			// Dead end: its cover feeds the next level's allocations.
			m.arena.Put(frontier[i].bits)
		}
	}
	if m.rec.Enabled() {
		m.rec.LevelObserve(level, len(frontier), len(survivors), contrasts,
			m.cfg.Workers, time.Since(levelStart))
	}
	if m.tr.Enabled() {
		m.tr.Level(levelTS, level, len(frontier), len(survivors), time.Since(levelStart))
	}
	return survivors
}

// evaluateTimed wraps evaluate with the per-node latency observation; the
// disabled-recorder path skips both clock reads.
func (m *miner) evaluateTimed(level, worker int, nd node, alpha, threshold float64) nodeOutcome {
	if m.rec == nil {
		return m.evaluate(level, worker, nd, alpha, threshold)
	}
	start := time.Now()
	o := m.evaluate(level, worker, nd, alpha, threshold)
	m.rec.NodeEval(level, time.Since(start))
	return o
}

// mineDFS explores nodes pre-order: each node is evaluated and its
// children fully explored before its siblings. Lookup-table inserts and
// top-k additions apply immediately. Covers are recycled at the same
// points as the levelwise order: inside expand for explored nodes, right
// here for dead ends and max-depth leaves.
func (m *miner) mineDFS(nodes []node, attrs []int, level int, alpha float64) {
	for _, nd := range nodes {
		if m.cancelled() {
			return
		}
		o := m.evaluateTimed(level, 0, nd, alpha, m.list.Threshold())
		m.stats.add(o.stats)
		for _, c := range o.contrasts {
			m.list.Add(c)
		}
		for _, key := range o.inserts {
			m.table[key] = struct{}{}
		}
		if o.survived && level < m.cfg.MaxDepth {
			m.mineDFS(m.expand([]node{nd}, attrs), attrs, level+1, alpha)
		} else if nd.owned {
			m.arena.Put(nd.bits)
		}
	}
}

// evaluate processes one node: a pure categorical itemset directly, a
// mixed/continuous combination via SDAD-CS. It must not touch shared
// mutable state (it runs concurrently); memo access is the one exception,
// guarded by supportMemo's mutex (internal/core/prune.go) — all shared
// access goes through supportMemo.supports, which locks around its cache.
func (m *miner) evaluate(level, worker int, nd node, alpha, threshold float64) nodeOutcome {
	if len(nd.contAttrs) == 0 {
		return m.evaluateCategorical(level, worker, nd, alpha)
	}
	run := &sdadRun{
		ctx:       m.ctx,
		d:         m.d,
		cfg:       m.cfg,
		prune:     m.prune,
		contAttrs: nd.contAttrs,
		alpha:     alpha,
		threshold: threshold,
		memo:      m.memo,
		table:     m.table,
		sizes:     m.sizes,
		totalRows: m.d.Rows(),
		rec:       m.rec,
		tr:        m.tr,
		worker:    worker,
	}
	contrasts := run.run(nd.catSet, m.coverView(nd))
	return nodeOutcome{
		contrasts: contrasts,
		inserts:   run.inserts,
		survived:  run.alive,
		stats:     run.stats,
	}
}

// coverView returns the node's cover as a row view. This is the lazy
// materialization fallback: SDAD-CS box interiors need raw row indices for
// median computation, so a bitmap cover converts to a sorted row slice
// exactly when (and only when) a continuous combination is handed to
// Algorithm 1.
func (m *miner) coverView(nd node) dataset.View {
	if nd.bits == nil {
		return m.d.All()
	}
	m.rec.BitmapMaterialize()
	return m.d.Restrict(nd.bits.Rows())
}

// groupCounts counts the node's cover per group: a popcount of the cover
// bitmap against every group mask.
func (m *miner) groupCounts(nd node) []int {
	if nd.bits == nil {
		// Full-universe cover: the group masks are their own counts.
		counts := make([]int, len(m.sizes))
		copy(counts, m.sizes)
		return counts
	}
	m.rec.BitmapPopcounts(len(m.sizes))
	// Fused multi-mask kernel: one pass over the cover counts every group,
	// skipping zero cover words for all groups at once. The counts slice
	// escapes into pattern.Supports, so it is freshly allocated.
	counts := make([]int, len(m.sizes))
	m.index.GroupCountsInto(nd.bits, counts)
	return counts
}

// evaluateCategorical handles a categorical-only node (STUCCO semantics).
func (m *miner) evaluateCategorical(level, worker int, nd node, alpha float64) nodeOutcome {
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
	dec := evaluatePruning(m.prune, nd.catSet, sup, m.cfg.Delta, alpha,
		m.d.Rows(), m.memo.supports, m.rec, m.tr, level, worker)
	if dec.record && m.prune.LookupTable {
		o.inserts = append(o.inserts, nd.catSet.Key())
	}
	if dec.skipContrast && dec.skipChildren {
		o.stats.SpacesPruned++
		return o
	}
	o.survived = !dec.skipChildren
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
