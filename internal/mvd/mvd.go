// Package mvd implements Bay's Multivariate Discretization (MVD, 2001),
// one of the paper's baselines. Each continuous attribute starts as fine
// equi-frequency intervals (100 instances per bin in the paper's setup);
// adjacent intervals are then merged bottom-up whenever they are *not*
// statistically different with respect to every context — the group (class)
// attribute and each other attribute under its current binning. Because
// contexts include other attributes, MVD can preserve boundaries induced by
// multivariate interactions, which pure class-entropy methods miss.
package mvd

import (
	"fmt"
	"sort"

	"sdadcs/internal/dataset"
	"sdadcs/internal/stats"
)

// Config controls the discretization.
type Config struct {
	// Alpha is the significance level for the difference tests (default
	// 0.05): two adjacent intervals merge only if no context
	// distinguishes them at this level.
	Alpha float64
	// BinSize is the target number of instances per initial bin (default
	// 100, as in the paper's experiments).
	BinSize int
	// MaxSweeps bounds the merge rounds (default 50; convergence is
	// normally reached in a handful).
	MaxSweeps int
}

func (c *Config) defaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.BinSize == 0 {
		c.BinSize = 100
	}
	if c.MaxSweeps == 0 {
		c.MaxSweeps = 50
	}
}

// BinningKey serializes the binning knobs with defaults resolved, for a
// canonical config key. Alpha is left out: a pipeline that shares one
// significance level between discretization and search renders it once,
// in the search's key.
func (c Config) BinningKey() string {
	c.defaults()
	return fmt.Sprintf("binsize=%d;maxsweeps=%d", c.BinSize, c.MaxSweeps)
}

// Result reports the discretization and the work done.
type Result struct {
	// Cuts holds the final cut points per continuous attribute index.
	Cuts map[int][]float64
	// PairsEvaluated counts adjacent-interval pairs whose contexts were
	// tested — the "partitions evaluated" cost metric of Table 5.
	PairsEvaluated int
}

// attrState is the mutable binning of one continuous attribute.
type attrState struct {
	attr   int
	sorted []int // row indices sorted by value
	rank   []int // rank[row] = position of row in sorted order
	starts []int // bin b covers sorted[starts[b]:starts[b+1]]; last entry = len
}

func (s *attrState) bins() int { return len(s.starts) - 1 }

// binOfRow returns the current bin of a dataset row, or -1 for a missing
// reading.
func (s *attrState) binOfRow(row int) int {
	r := s.rank[row]
	if r < 0 {
		return -1
	}
	// Find the bin whose range contains rank r.
	return sort.Search(len(s.starts)-1, func(b int) bool { return s.starts[b+1] > r })
}

// DiscretizeDataset runs MVD over all continuous attributes of d.
func DiscretizeDataset(d *dataset.Dataset, cfg Config) Result {
	cfg.defaults()
	contAttrs := d.ContinuousAttrs()
	states := make([]*attrState, 0, len(contAttrs))
	for _, attr := range contAttrs {
		states = append(states, newAttrState(d, attr, cfg.BinSize))
	}
	res := Result{Cuts: make(map[int][]float64, len(states))}

	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		merged := false
		for _, s := range states {
			if mergeOnce(d, s, states, cfg.Alpha, &res.PairsEvaluated) {
				merged = true
			}
		}
		if !merged {
			break
		}
	}

	for _, s := range states {
		res.Cuts[s.attr] = s.cutPoints(d)
	}
	return res
}

// newAttrState builds the initial equi-frequency binning, snapping bin
// boundaries so equal values never straddle a boundary. Rows with missing
// (NaN) readings are excluded from the attribute's ordering and get rank
// −1: they belong to no interval and contribute nothing as context.
func newAttrState(d *dataset.Dataset, attr, binSize int) *attrState {
	total := d.Rows()
	s := &attrState{attr: attr}
	col := d.ContColumn(attr)
	s.sorted = make([]int, 0, total)
	for i := 0; i < total; i++ {
		if col[i] == col[i] { // skip NaN
			s.sorted = append(s.sorted, i)
		}
	}
	n := len(s.sorted)
	sort.SliceStable(s.sorted, func(a, b int) bool { return col[s.sorted[a]] < col[s.sorted[b]] })
	s.rank = make([]int, total)
	for i := range s.rank {
		s.rank[i] = -1
	}
	for pos, row := range s.sorted {
		s.rank[row] = pos
	}
	s.starts = []int{0}
	for pos := binSize; pos < n; pos += binSize {
		// Snap forward past ties.
		p := pos
		for p < n && col[s.sorted[p]] == col[s.sorted[p-1]] {
			p++
		}
		if p < n && p > s.starts[len(s.starts)-1] {
			s.starts = append(s.starts, p)
		}
	}
	s.starts = append(s.starts, n)
	return s
}

// cutPoints converts bin boundaries to value-space cut points: the largest
// value of each bin except the last, matching the (lo, hi] convention.
func (s *attrState) cutPoints(d *dataset.Dataset) []float64 {
	col := d.ContColumn(s.attr)
	cuts := make([]float64, 0, s.bins()-1)
	for b := 0; b < s.bins()-1; b++ {
		lastRow := s.sorted[s.starts[b+1]-1]
		cuts = append(cuts, col[lastRow])
	}
	return cuts
}

// mergeOnce performs best-first merging on one attribute until no adjacent
// pair is mergeable, and reports whether anything merged.
func mergeOnce(d *dataset.Dataset, s *attrState, all []*attrState, alpha float64, pairs *int) bool {
	mergedAny := false
	for {
		bestPair := -1
		bestP := alpha // must exceed alpha (not significantly different)
		for b := 0; b < s.bins()-1; b++ {
			*pairs++
			p := pairSimilarity(d, s, b, all)
			if p > bestP {
				bestP = p
				bestPair = b
			}
		}
		if bestPair == -1 {
			return mergedAny
		}
		// Merge bins bestPair and bestPair+1 by deleting the boundary.
		s.starts = append(s.starts[:bestPair+1], s.starts[bestPair+2:]...)
		mergedAny = true
		if s.bins() <= 1 {
			return mergedAny
		}
	}
}

// pairSimilarity returns the smallest Bonferroni-adjusted p-value over all
// contexts for the adjacent bins (b, b+1) of s — the strength of the
// strongest evidence that the two intervals differ. A pair is mergeable
// when this exceeds alpha. The per-context p-values are multiplied by the
// number of contexts tested (Bonferroni) so that testing many contexts does
// not spuriously block merges on independent attributes.
func pairSimilarity(d *dataset.Dataset, s *attrState, b int, all []*attrState) float64 {
	lo1, hi1 := s.starts[b], s.starts[b+1]
	lo2, hi2 := s.starts[b+1], s.starts[b+2]

	// Contexts tested: class + categorical attributes + other continuous
	// attributes.
	nContexts := 1 + len(d.CategoricalAttrs()) + len(all) - 1
	minP := 1.0
	consider := func(p float64, ok bool) {
		if !ok {
			return
		}
		p *= float64(nContexts) // Bonferroni across contexts
		if p > 1 {
			p = 1
		}
		if p < minP {
			minP = p
		}
	}

	// Context 1: the group (class) attribute.
	consider(contextTest(func(row int) int { return d.Group(row) }, d.NumGroups(),
		s.sorted[lo1:hi1], s.sorted[lo2:hi2]))

	// Context 2: every categorical attribute.
	for _, attr := range d.CategoricalAttrs() {
		a := attr
		consider(contextTest(func(row int) int { return d.CatCode(a, row) },
			len(d.Domain(a)), s.sorted[lo1:hi1], s.sorted[lo2:hi2]))
	}

	// Context 3: every other continuous attribute under its current bins.
	for _, other := range all {
		if other.attr == s.attr {
			continue
		}
		o := other
		consider(contextTest(o.binOfRow, o.bins(),
			s.sorted[lo1:hi1], s.sorted[lo2:hi2]))
	}
	return minP
}

// contextTest chi-square-tests whether two row sets have the same
// distribution over a context with the given cardinality. Rows whose
// context is unknown (negative, e.g. a missing reading) are skipped. ok is
// false when the table is degenerate (e.g. a context value covers
// everything), in which case the context provides no evidence of
// difference.
func contextTest(ctx func(row int) int, cardinality int, rows1, rows2 []int) (float64, bool) {
	if cardinality < 2 {
		return 1, false
	}
	obs := make([][]float64, 2)
	obs[0] = make([]float64, cardinality)
	obs[1] = make([]float64, cardinality)
	for _, r := range rows1 {
		if c := ctx(r); c >= 0 {
			obs[0][c]++
		}
	}
	for _, r := range rows2 {
		if c := ctx(r); c >= 0 {
			obs[1][c]++
		}
	}
	// Drop empty columns to keep the test well-defined.
	trimmed := [][]float64{{}, {}}
	for c := 0; c < cardinality; c++ {
		if obs[0][c]+obs[1][c] > 0 {
			trimmed[0] = append(trimmed[0], obs[0][c])
			trimmed[1] = append(trimmed[1], obs[1][c])
		}
	}
	if len(trimmed[0]) < 2 {
		return 1, false
	}
	res, err := stats.ChiSquareTable(trimmed)
	if err != nil {
		return 1, false
	}
	return res.P, true
}
