// Package stucco implements STUCCO-style categorical contrast set mining
// (Bay & Pazzani 2001), the foundation the paper builds on for itemsets
// with only categorical attributes (§3, §4.3):
//
//   - levelwise candidate generation over attribute=value items,
//   - a contrast is an itemset whose largest support difference exceeds δ
//     (Eq. 2) and whose group association is chi-square significant at the
//     Bonferroni-adjusted level (Eq. 3),
//   - pruning by minimum deviation size, expected cell count < 5, and the
//     chi-square optimistic-estimate bound.
//
// It also serves as the shared combination search run over pre-binned data
// for the entropy and MVD baselines: after global discretization each bin
// is just a categorical value.
//
// The search runs on the core miner's level substrate: the pruning rules
// are core.EvaluatePruning's, each level's expansion fans out through
// core.ForEach with a deterministic merge, support counting runs on the
// dataset-cached bitmap index (core.SharedIndex), and the metrics recorder
// and trace ring receive the same per-level/per-rule instrumentation.
package stucco

import (
	"context"
	"fmt"
	"time"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
	"sdadcs/internal/topk"
	"sdadcs/internal/trace"
)

// TopKUnbounded disables the top-k result bound: every admissible contrast
// is retained (the differential oracle mines with this sentinel).
const TopKUnbounded = -1

// Config controls a mining run.
type Config struct {
	// Alpha is the global significance level (default 0.05); it is
	// Bonferroni-adjusted per level during the search.
	Alpha float64
	// Delta is the minimum support difference for a large contrast and the
	// minimum support for the deviation-size pruning (default 0.1).
	Delta float64
	// MaxDepth bounds the itemset size (default 5, the paper's setting).
	MaxDepth int
	// TopK bounds the result list (default 100). TopKUnbounded (-1)
	// disables the bound entirely.
	TopK int
	// Measure scores contrasts for the top-k list (default SupportDiff).
	Measure pattern.Measure
	// Attrs restricts the search to these attribute indices; nil means all
	// categorical attributes.
	Attrs []int
	// Workers > 1 generates each level's children in parallel; results are
	// merged deterministically, so any worker count is bit-identical to the
	// serial search.
	Workers int
	// Metrics, when non-nil, receives per-level node counts and wall
	// times, per-rule prune hits and top-k threshold updates. nil disables
	// instrumentation at one pointer check per site.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives decision-level events: candidate
	// evaluations, per-rule prune firings with observed statistic and
	// bound, pattern emissions and top-k admissions.
	Trace *trace.Tracer
}

func (c *Config) defaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Delta == 0 {
		c.Delta = 0.1
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = core.DefaultMaxDepth
	}
	if c.TopK == 0 {
		c.TopK = 100
	}
	if c.TopK == TopKUnbounded {
		c.TopK = 0 // topk.List treats k <= 0 as unbounded
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
}

// CanonicalKey serializes the result-affecting fields with defaults
// resolved, in a fixed order. Workers and the observability sinks are
// left out: they never change the result.
func (c Config) CanonicalKey() string {
	c.defaults()
	return fmt.Sprintf("alpha=%.17g;delta=%.17g;depth=%d;topk=%d;measure=%s;attrs=%s",
		c.Alpha, c.Delta, c.MaxDepth, c.TopK, c.Measure, dataset.AttrsKey(c.Attrs))
}

// Result carries the mined contrasts and search statistics.
type Result struct {
	Contrasts []pattern.Contrast
	// Candidates is the number of candidate itemsets whose supports were
	// counted.
	Candidates int
	// Pruned is the number of candidates cut by any pruning rule before
	// their children were generated.
	Pruned int
}

// node is a surviving search-tree entry: an itemset, the rows it covers
// (a bitmap intersection, counted by popcount as in SciCSM), and the
// highest attribute used (children only append later attributes, which
// enumerates each attribute set exactly once — the Figure 1 order).
type node struct {
	set      pattern.Itemset
	bits     *bitmap.Set
	supports pattern.Supports
	lastAttr int
}

// miner is the per-run state.
type miner struct {
	d         *dataset.Dataset
	cfg       Config
	idx       *bitmap.Index
	attrs     []int
	sizes     []int
	totalRows int
	list      *topk.List
	rec       *metrics.Recorder
	tr        *trace.Tracer
	res       Result
}

// Mine runs the levelwise search and returns the top contrasts sorted by
// descending score.
func Mine(d *dataset.Dataset, cfg Config) Result {
	res, _ := MineContext(context.Background(), d, cfg)
	return res
}

// MineContext is Mine with cancellation: the search checks ctx between
// levels and returns the contrasts found so far plus ctx.Err() when
// canceled.
func MineContext(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	cfg.defaults()
	attrs := cfg.Attrs
	if attrs == nil {
		attrs = d.CategoricalAttrs()
	}
	// δ bounds the support difference, not the score: purity-based
	// measures legitimately score large contrasts below δ.
	floor := cfg.Delta
	if cfg.Measure != pattern.SupportDiff {
		floor = 0
	}
	m := &miner{
		d:         d,
		cfg:       cfg,
		attrs:     attrs,
		sizes:     d.GroupSizes(),
		totalRows: d.Rows(),
		list:      topk.New(cfg.TopK, floor).WithRecorder(cfg.Metrics).WithTracer(cfg.Trace),
		rec:       cfg.Metrics,
		tr:        cfg.Trace,
	}
	// Ride the dataset-cached index: a STUCCO baseline run over a dataset
	// the levelwise miner already indexed (or vice versa) pays no rebuild.
	m.idx = core.SharedIndex(d, m.rec)
	root := node{set: pattern.NewItemset(), bits: m.idx.All(), lastAttr: -1}
	schedule := stats.NewBonferroniSchedule(cfg.Alpha)

	frontier := m.expandAll(1, []node{root})
	var err error
	for level := 1; level <= cfg.MaxDepth && len(frontier) > 0; level++ {
		if e := ctx.Err(); e != nil {
			err = e
			break
		}
		start := time.Now()
		alpha := schedule.LevelAlpha(len(frontier))
		survivors, emitted := m.evaluate(level, frontier, alpha)
		m.rec.LevelObserve(level, len(frontier), len(survivors), emitted, cfg.Workers, time.Since(start))
		if level == cfg.MaxDepth {
			break
		}
		frontier = m.expandAll(level+1, survivors)
	}
	m.res.Contrasts = m.list.Contrasts()
	return m.res, err
}

// rules are STUCCO's pruning rules, in core's order: minimum deviation
// size, expected cell count below 5, and the χ² optimistic-estimate bound.
var rules = core.Pruning{MinDeviation: true, ExpectedCount: true, ChiSquareOE: true}

// evaluate tests every frontier candidate at the level's α: emit the large
// and significant ones, apply the pruning rules, and return the survivors
// whose children will be generated (plus the number of contrasts emitted).
func (m *miner) evaluate(level int, frontier []node, alpha float64) ([]node, int) {
	var survivors []node
	emitted := 0
	// The χ² optimistic-estimate rule's critical value depends only on the
	// level's α and the group count: compute it once per level.
	crit := core.ChiSquareCrit(alpha, len(m.sizes))
	for _, nd := range frontier {
		m.res.Candidates++
		sup := nd.supports
		if m.tr.Enabled() {
			m.tr.Node(level, 0, nd.set, sup.TotalCount(), sup.Count)
		}

		// Record as a contrast when large and significant.
		test, err := stats.ChiSquare2xK(sup.Count, m.sizes)
		significant := err == nil && test.P < alpha && test.MinExpected >= 5
		if sup.MaxDiff() > m.cfg.Delta && significant {
			score := m.cfg.Measure.Eval(sup)
			if m.tr.Enabled() {
				m.tr.Emit(level, 0, nd.set, score, test.Statistic, test.P, sup.Count)
			}
			if m.list.Add(pattern.Contrast{
				Set:      nd.set,
				Supports: sup,
				Score:    score,
				ChiSq:    test.Statistic,
				P:        test.P,
			}) {
				emitted++
			}
		}

		// Pruning rules decide whether children are generated.
		if core.EvaluatePruning(rules, nd.set, sup, m.cfg.Delta, alpha, crit,
			m.totalRows, nil, m.rec, m.tr, level, 0).SkipChildren {
			m.res.Pruned++
			continue
		}
		survivors = append(survivors, nd)
	}
	return survivors, emitted
}

// expandAll generates the children of every surviving node — the
// frontier of the given level — fanning the parents out over cfg.Workers.
// Children are collected per parent and concatenated in parent order, so
// the frontier is identical for any worker count.
func (m *miner) expandAll(level int, parents []node) []node {
	perParent := make([][]node, len(parents))
	core.ForEach(nil, m.cfg.Workers, level, len(parents), func(_, i int) {
		perParent[i] = m.children(parents[i])
	})
	var out []node
	for _, kids := range perParent {
		out = append(out, kids...)
	}
	return out
}

// children extends one node with every value of every attribute strictly
// after its last attribute: covers are bitmap intersections and supports
// are popcounts against the group masks.
func (m *miner) children(nd node) []node {
	var out []node
	for _, attr := range m.attrs {
		if attr <= nd.lastAttr {
			continue
		}
		domain := m.d.Domain(attr)
		for code := range domain {
			cover := nd.bits.And(m.idx.Value(attr, code))
			counts := m.idx.GroupCounts(cover)
			total := 0
			for _, c := range counts {
				total += c
			}
			if total == 0 {
				continue
			}
			out = append(out, node{
				set:      nd.set.With(pattern.CatItem(attr, code)),
				bits:     cover,
				supports: pattern.CountsToSupports(counts, m.sizes),
				lastAttr: attr,
			})
		}
	}
	return out
}
