// Package subgroup reimplements the Cortana configuration the paper
// compares against (§5, "Cortana-Interval"): beam search with width 100
// over subgroup descriptions, WRACC as the quality measure (a nominal
// target, one run per group, all subgroups pooled as the contrast set),
// and the "intervals" strategy for numeric attributes — candidate
// conditions are intervals assembled from equal-frequency boundaries,
// including the half-open "(−inf, b]" and "(b, +inf)" forms visible in the
// paper's Table 1 rows.
//
// The beam search runs on the core miner's level substrate: a candidate
// is counted as its parent's cover ANDed with a per-condition bitmap over
// the dataset-cached index (core.SharedIndex), in one fused pass that
// writes no intersection; only the BeamWidth entries kept for the next
// level get their cover written. Per-level candidate counting fans out
// through core.ForEach into per-candidate slots, and the metrics recorder
// and trace ring receive the same instrumentation as everywhere else.
package subgroup

import (
	"context"
	"fmt"
	"math"
	"sort"
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

// TopKUnbounded disables the pooled result bound (the differential oracle
// mines with this sentinel).
const TopKUnbounded = -1

// DefaultDepth is the depth a zero Config.Depth selects.
const DefaultDepth = 2

// Config controls the beam search.
type Config struct {
	// BeamWidth is the number of subgroups carried between levels
	// (default 100, the paper's "search width 100").
	BeamWidth int
	// Depth bounds the number of conditions per subgroup (default 2,
	// matching the depth the paper uses in its Table 3 discussion).
	Depth int
	// Bins is the number of equal-frequency boundary candidates per
	// numeric attribute (default 8, Cortana's default bin count).
	Bins int
	// TopK bounds the pooled result list (default 100, the paper's
	// "maximum subgroups to k (100 in experiments)"). TopKUnbounded (-1)
	// disables the bound.
	TopK int
	// MinCoverage is the minimum number of rows a subgroup must cover
	// (default 2, the paper's "minimum coverage to 2").
	MinCoverage int
	// MinQuality is the minimum WRACC for a subgroup to be reported
	// (default 0.01, the paper's "minimum value of 0.01").
	MinQuality float64
	// Measure scores the pooled contrasts for cross-algorithm comparison
	// (default SupportDiff; the beam itself is always driven by WRACC).
	Measure pattern.Measure
	// Workers > 1 counts each level's candidate covers in parallel;
	// admission and beam selection stay serial, so any worker count is
	// bit-identical to the serial search.
	Workers int
	// Metrics, when non-nil, receives per-level candidate counts, wall
	// times and top-k threshold updates.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives candidate evaluations and top-k
	// admissions.
	Trace *trace.Tracer
}

func (c *Config) defaults() {
	if c.BeamWidth == 0 {
		c.BeamWidth = 100
	}
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.Bins == 0 {
		c.Bins = 8
	}
	if c.TopK == 0 {
		c.TopK = 100
	}
	if c.TopK == TopKUnbounded {
		c.TopK = 0 // topk.List treats k <= 0 as unbounded
	}
	if c.MinCoverage == 0 {
		c.MinCoverage = 2
	}
	if c.MinQuality == 0 {
		c.MinQuality = 0.01
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
	return fmt.Sprintf("beam=%d;depth=%d;bins=%d;topk=%d;mincoverage=%d;minquality=%.17g;measure=%s",
		c.BeamWidth, c.Depth, c.Bins, c.TopK, c.MinCoverage, c.MinQuality, c.Measure)
}

// Result carries the pooled contrasts and the number of subgroup
// evaluations performed.
type Result struct {
	Contrasts []pattern.Contrast
	Evaluated int
}

// Mine runs the beam search once per group and pools the results.
func Mine(d *dataset.Dataset, cfg Config) Result {
	res, _ := MineContext(context.Background(), d, cfg)
	return res
}

// MineContext is Mine with cancellation: the search checks ctx between
// beam levels and returns what was pooled so far plus ctx.Err() when
// canceled.
func MineContext(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	cfg.defaults()
	m := &searcher{
		d:     d,
		cfg:   cfg,
		conds: conditions(d, cfg.Bins),
		sizes: d.GroupSizes(),
		rec:   cfg.Metrics,
		tr:    cfg.Trace,
	}
	m.idx = core.SharedIndex(d, m.rec)
	m.condBits = make([]*bitmap.Set, len(m.conds))
	list := topk.New(cfg.TopK, cfg.MinQuality).WithRecorder(cfg.Metrics).WithTracer(cfg.Trace)

	var err error
	for g := 0; g < d.NumGroups(); g++ {
		if err = m.mineTarget(ctx, g, list); err != nil {
			break
		}
	}
	// Rescore pooled subgroups under the comparison measure.
	out := pattern.Rescore(list.Contrasts(), cfg.Measure)
	return Result{Contrasts: out, Evaluated: m.evaluated}, err
}

// searcher is the per-run state shared by the per-target beam searches.
type searcher struct {
	d         *dataset.Dataset
	cfg       Config
	conds     []pattern.Item
	sizes     []int
	idx       *bitmap.Index
	condBits  []*bitmap.Set // lazily built per-condition covers
	evaluated int
	rec       *metrics.Recorder
	tr        *trace.Tracer
}

// beamEntry is one subgroup on the beam. key is set's canonical key,
// kept for the beam sort's tie-break; parent and cond name the previous
// beam's entry and the condition it was specialized with, from which bits
// is written once the entry is kept.
type beamEntry struct {
	set     pattern.Itemset
	key     string
	parent  int
	cond    int
	bits    *bitmap.Set
	quality float64
}

// candidate is one (parent × condition) specialization scheduled for
// counting.
type candidate struct {
	parent int
	cond   int
	set    pattern.Itemset
	key    string
	// filled by the parallel counting stage
	count int
	sup   pattern.Supports
}

// condBitmap returns (building on first use) the cover bitmap of one
// condition. Lazy building keeps unused interval conditions free; the
// build scans rows once, after which every deeper cover is an AND.
func (m *searcher) condBitmap(i int) *bitmap.Set {
	if m.condBits[i] == nil {
		s := bitmap.New(m.d.Rows())
		cond := m.conds[i]
		for r := 0; r < m.d.Rows(); r++ {
			if cond.Matches(m.d, r) {
				s.Add(r)
			}
		}
		m.condBits[i] = s
	}
	return m.condBits[i]
}

// mineTarget runs one beam search with group g as the target.
func (m *searcher) mineTarget(ctx context.Context, g int, list *topk.List) error {
	beam := []beamEntry{{set: pattern.NewItemset(), bits: m.idx.All()}}
	for level := 1; level <= m.cfg.Depth; level++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()

		// Serial enumeration with dedup keeps the candidate order (and the
		// evaluation count) identical for any worker count.
		cands := make([]candidate, 0, len(beam)*len(m.conds))
		seen := map[string]bool{}
		for pi, be := range beam {
			for ci, cond := range m.conds {
				if _, used := be.set.ItemOn(cond.Attr); used {
					continue
				}
				set := be.set.With(cond)
				key := set.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				cands = append(cands, candidate{parent: pi, cond: ci, set: set, key: key})
			}
		}

		// Parallel counting stage: supports land in per-index slots.
		m.countAll(level, beam, cands)

		// Serial admission stage: quality, pooling and the next beam.
		next := make([]beamEntry, 0, len(cands))
		emitted := 0
		for i := range cands {
			c := &cands[i]
			m.evaluated++
			if m.tr.Enabled() {
				m.tr.Node(level, 0, c.set, c.count, c.sup.Count)
			}
			if c.count < m.cfg.MinCoverage {
				continue
			}
			q := c.sup.WRAcc(g)
			if q >= m.cfg.MinQuality {
				test, err := stats.ChiSquare2xK(c.sup.Count, m.sizes)
				contrast := pattern.Contrast{
					Set:      c.set,
					Supports: c.sup,
					Score:    q,
				}
				if err == nil {
					contrast.ChiSq = test.Statistic
					contrast.P = test.P
				}
				if list.Add(contrast) {
					emitted++
				}
			}
			next = append(next, beamEntry{set: c.set, key: c.key, parent: c.parent, cond: c.cond, quality: q})
		}
		// Keep the top BeamWidth by quality (deterministic tie-break).
		sort.Slice(next, func(i, j int) bool {
			if next[i].quality != next[j].quality {
				return next[i].quality > next[j].quality
			}
			return next[i].key < next[j].key
		})
		if len(next) > m.cfg.BeamWidth {
			next = next[:m.cfg.BeamWidth]
		}
		// Only the kept entries need a cover, for the next level's counts.
		if level < m.cfg.Depth {
			for i := range next {
				e := &next[i]
				e.bits = beam[e.parent].bits.And(m.condBits[e.cond])
			}
		}
		m.rec.LevelObserve(level, len(cands), len(next), emitted, m.cfg.Workers, time.Since(start))
		beam = next
	}
	return nil
}

// countAll fills each candidate's supports, fanning out over
// cfg.Workers: the parent's cover ANDed with the condition's bitmap is
// counted against the group masks in one pass, without writing it. The
// per-condition bitmaps are built up-front (serially, so the lazy cache
// stays race-free).
func (m *searcher) countAll(level int, beam []beamEntry, cands []candidate) {
	for i := range cands {
		m.condBitmap(cands[i].cond)
	}
	core.ForEach(nil, m.cfg.Workers, level, len(cands), func(_, i int) {
		c := &cands[i]
		counts := make([]int, len(m.sizes))
		m.idx.AndGroupCountsInto(beam[c.parent].bits, m.condBits[c.cond], counts)
		for _, n := range counts {
			c.count += n
		}
		c.sup = pattern.CountsToSupports(counts, m.sizes)
	})
}

// conditions enumerates every candidate condition: attribute=value for
// categorical attributes, and all intervals over equal-frequency
// boundaries for numeric attributes (including one-sided intervals).
func conditions(d *dataset.Dataset, bins int) []pattern.Item {
	var out []pattern.Item
	for _, attr := range d.CategoricalAttrs() {
		for code := range d.Domain(attr) {
			out = append(out, pattern.CatItem(attr, code))
		}
	}
	for _, attr := range d.ContinuousAttrs() {
		bounds := boundaries(d, attr, bins)
		// Intervals (b_i, b_j] over the boundary ladder extended with
		// ±inf; skip the trivial full range.
		ext := make([]float64, 0, len(bounds)+2)
		ext = append(ext, math.Inf(-1))
		ext = append(ext, bounds...)
		ext = append(ext, math.Inf(1))
		for i := 0; i < len(ext)-1; i++ {
			for j := i + 1; j < len(ext); j++ {
				if i == 0 && j == len(ext)-1 {
					continue // (-inf, +inf)
				}
				out = append(out, pattern.RangeItem(attr, ext[i], ext[j]))
			}
		}
	}
	return out
}

// boundaries returns up to bins-1 distinct equal-frequency split values.
func boundaries(d *dataset.Dataset, attr, bins int) []float64 {
	var out []float64
	prev := math.Inf(-1)
	for b := 1; b < bins; b++ {
		q := d.All().Quantile(attr, float64(b)/float64(bins))
		if q > prev {
			out = append(out, q)
			prev = q
		}
	}
	return out
}
