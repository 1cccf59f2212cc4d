package oracle

import (
	"math"
	"sort"

	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
)

// Config controls a reference mining run. Unlike core.Config there are no
// pruning toggles, no result bound, no worker count and no counting-engine
// knob: the oracle always enumerates everything, serially, by row scans.
type Config struct {
	// Alpha is the initial significance level; Bonferroni-adjusted per
	// level exactly as in STUCCO.
	Alpha float64
	// Delta is the minimum support difference (Eq. 2 threshold).
	Delta float64
	// MaxDepth bounds the number of attributes per combination.
	MaxDepth int
	// MaxRecursion bounds the SDAD-CS median-split recursion.
	MaxRecursion int
	// Measure is the driving interest measure.
	Measure pattern.Measure
	// RecordExplored mirrors core.Config.RecordExploredSpaces: when false
	// (Algorithm 1), a space whose refinement produced contrasts is
	// superseded by its children; when true (the NP variant), the coarse
	// space is recorded as well.
	RecordExplored bool
}

// Result is a reference mining outcome.
type Result struct {
	// Contrasts is the full pattern universe, sorted by descending score
	// with ties broken on the canonical key (the same total order the
	// production result uses).
	Contrasts []pattern.Contrast
	// LevelAlphas[l-1] is the Bonferroni-adjusted significance level used
	// at combination level l.
	LevelAlphas []float64
	// Candidates[l-1] is the number of candidate combinations tested at
	// level l (the |C_l| of the adjustment).
	Candidates []int
}

// Alpha returns the significance level in force at a combination level
// (1-based); it falls back to the deepest recorded level.
func (r Result) Alpha(level int) float64 {
	if len(r.LevelAlphas) == 0 {
		return math.NaN()
	}
	if level < 1 {
		level = 1
	}
	if level > len(r.LevelAlphas) {
		level = len(r.LevelAlphas)
	}
	return r.LevelAlphas[level-1]
}

// comb is one candidate attribute combination: a categorical value context
// (as items), the rows matching it, and the continuous attributes to be
// jointly discretized. len(catItems) + len(contAttrs) is the level.
type comb struct {
	catItems  []pattern.Item
	cover     []int // dataset rows matching catItems (all rows when empty)
	contAttrs []int
	lastAttr  int
}

type refMiner struct {
	d     *dataset.Dataset
	cfg   Config
	sizes []int
	// found maps canonical keys to emitted contrasts; duplicate emissions
	// (e.g. a merge union colliding with an NP-recorded coarse space) keep
	// the higher score, matching the production top-k replace rule.
	found map[string]pattern.Contrast
}

// Mine runs the exhaustive reference search.
func Mine(d *dataset.Dataset, cfg Config) Result {
	m := &refMiner{d: d, cfg: cfg, sizes: d.GroupSizes(), found: map[string]pattern.Contrast{}}

	frontier := m.levelOne()
	res := Result{}
	prevAlpha := cfg.Alpha
	for level := 1; level <= cfg.MaxDepth && len(frontier) > 0; level++ {
		// STUCCO's per-level Bonferroni adjustment, Eq.: α_l = min(α/|C_l|, α_{l−1}).
		alpha := cfg.Alpha / float64(len(frontier))
		if alpha > prevAlpha {
			alpha = prevAlpha
		}
		prevAlpha = alpha
		res.LevelAlphas = append(res.LevelAlphas, alpha)
		res.Candidates = append(res.Candidates, len(frontier))

		var survivors []comb
		for _, c := range frontier {
			if len(c.contAttrs) == 0 {
				m.evaluateCategorical(c, alpha)
				survivors = append(survivors, c) // categorical nodes always extend
				continue
			}
			contrasts, alive := m.sdad(c, alpha)
			for _, ct := range contrasts {
				m.emit(ct)
			}
			if alive {
				survivors = append(survivors, c)
			}
		}
		if level == cfg.MaxDepth {
			break
		}
		frontier = m.expand(survivors)
	}

	for _, c := range m.found {
		res.Contrasts = append(res.Contrasts, c)
	}
	pattern.SortContrasts(res.Contrasts)
	return res
}

func (m *refMiner) emit(c pattern.Contrast) {
	key := c.Set.Key()
	if prev, ok := m.found[key]; ok && prev.Score >= c.Score {
		return
	}
	m.found[key] = c
}

// levelOne builds the initial frontier: one comb per categorical value
// some row holds and one per continuous attribute, in attribute order. A
// value no row holds is not a candidate, as in expand.
func (m *refMiner) levelOne() []comb {
	var out []comb
	for attr := 0; attr < m.d.NumAttrs(); attr++ {
		if m.d.Attr(attr).Kind == dataset.Categorical {
			for code := range m.d.Domain(attr) {
				items := []pattern.Item{pattern.CatItem(attr, code)}
				cover := m.coverOf(items)
				if len(cover) == 0 {
					continue
				}
				out = append(out, comb{
					catItems: items,
					cover:    cover,
					lastAttr: attr,
				})
			}
		} else {
			out = append(out, comb{
				cover:     allRows(m.d),
				contAttrs: []int{attr},
				lastAttr:  attr,
			})
		}
	}
	return out
}

// expand extends every surviving comb with every attribute after its last.
// A categorical extension with an empty cover is not a candidate (it can
// never be tested), matching the levelwise search's candidate counting.
func (m *refMiner) expand(survivors []comb) []comb {
	var out []comb
	for _, c := range survivors {
		for attr := c.lastAttr + 1; attr < m.d.NumAttrs(); attr++ {
			if m.d.Attr(attr).Kind == dataset.Categorical {
				for code := range m.d.Domain(attr) {
					items := append(append([]pattern.Item(nil), c.catItems...),
						pattern.CatItem(attr, code))
					cover := m.coverOf(items)
					if len(cover) == 0 {
						continue
					}
					out = append(out, comb{
						catItems:  items,
						cover:     cover,
						contAttrs: c.contAttrs,
						lastAttr:  attr,
					})
				}
			} else {
				conts := append(append([]int(nil), c.contAttrs...), attr)
				out = append(out, comb{
					catItems:  c.catItems,
					cover:     c.cover,
					contAttrs: conts,
					lastAttr:  attr,
				})
			}
		}
	}
	return out
}

// coverOf scans every dataset row and keeps those matching all items — the
// naive counting path.
func (m *refMiner) coverOf(items []pattern.Item) []int {
	var rows []int
	for r := 0; r < m.d.Rows(); r++ {
		ok := true
		for _, it := range items {
			if !it.Matches(m.d, r) {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, r)
		}
	}
	return rows
}

func allRows(d *dataset.Dataset) []int {
	rows := make([]int, d.Rows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// suppOf is Eq. 1 from first principles: per-group counts over the rows,
// divided by the full dataset's group sizes.
func (m *refMiner) suppOf(rows []int) pattern.Supports {
	counts := make([]int, len(m.sizes))
	for _, r := range rows {
		counts[m.d.Group(r)]++
	}
	return pattern.Supports{Count: counts, Size: append([]int(nil), m.sizes...)}
}

// scoreOf evaluates the driving measure by transliterating Eq. 2 (Diff),
// Eq. 12 (PR) and Eq. 13 (SM) directly. WRAcc falls back to the shared
// definition (it only appears in baseline comparisons).
func (m *refMiner) scoreOf(sup pattern.Supports) float64 {
	switch m.cfg.Measure {
	case pattern.SupportDiff:
		return maxDiffRef(sup)
	case pattern.PurityRatio:
		return prRef(sup)
	case pattern.SurprisingMeasure:
		return prRef(sup) * maxDiffRef(sup) // Eq. 13: SM = PR × Diff
	case pattern.GrowthRateMeasure:
		return growthRateRef(sup)
	case pattern.ContrastRuleMeasure:
		return confSpreadRef(sup)
	default:
		return m.cfg.Measure.Eval(sup)
	}
}

// growthRateRef transliterates the squashed emerging-pattern growth rate:
// GR = max(supp)/min(supp), score = GR/(GR+1), with 0 for uncovered
// patterns and 1 for jumping emerging patterns (min supp = 0).
func growthRateRef(sup pattern.Supports) float64 {
	lo, hi := sup.Supp(0), sup.Supp(0)
	for g := 1; g < sup.Groups(); g++ {
		v := sup.Supp(g)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == 0 {
		return 0
	}
	if lo == 0 {
		return 1
	}
	gr := hi / lo
	return gr / (gr + 1)
}

// confSpreadRef transliterates the SCR-style contrasting-rules score: the
// spread of conf_g = Count[g]/TotalCount over groups, 0 when uncovered.
func confSpreadRef(sup pattern.Supports) float64 {
	covered := 0
	for _, c := range sup.Count {
		covered += c
	}
	if covered == 0 {
		return 0
	}
	lo, hi := 0.0, 0.0
	for g := range sup.Count {
		conf := float64(sup.Count[g]) / float64(covered)
		if g == 0 || conf < lo {
			lo = conf
		}
		if g == 0 || conf > hi {
			hi = conf
		}
	}
	return hi - lo
}

// maxDiffRef is Eq. 2 maximized over ordered group pairs:
// max_{i,j} supp_i − supp_j = max(supp) − min(supp).
func maxDiffRef(sup pattern.Supports) float64 {
	lo, hi := sup.Supp(0), sup.Supp(0)
	for g := 1; g < sup.Groups(); g++ {
		v := sup.Supp(g)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// prRef is Eq. 12: PR = 1 − min(supp)/max(supp); 0 when nothing is covered.
func prRef(sup pattern.Supports) float64 {
	lo, hi := sup.Supp(0), sup.Supp(0)
	for g := 1; g < sup.Groups(); g++ {
		v := sup.Supp(g)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == 0 {
		return 0
	}
	return 1 - lo/hi
}

// chiSquareRef recomputes the 2×k group/presence chi-square from the
// Σ(o−e)²/e definition. ok is false when the statistic is undefined (a zero
// margin: nothing covered, everything covered, or an empty group).
func chiSquareRef(count, size []int) (stat, p float64, df int, ok bool) {
	k := len(count)
	present, absent, total := 0, 0, 0
	for g := 0; g < k; g++ {
		if size[g] == 0 {
			return 0, 0, 0, false
		}
		present += count[g]
		absent += size[g] - count[g]
		total += size[g]
	}
	if present == 0 || absent == 0 {
		return 0, 0, 0, false
	}
	for g := 0; g < k; g++ {
		for _, cell := range [2]struct{ obs, colSum float64 }{
			{float64(count[g]), float64(present)},
			{float64(size[g] - count[g]), float64(absent)},
		} {
			exp := float64(size[g]) * cell.colSum / float64(total)
			d := cell.obs - exp
			stat += d * d / exp
		}
	}
	df = k - 1
	return stat, stats.ChiSquareSurvival(stat, df), df, true
}

// significant applies the chi-square gate NaN-safely: only a definite
// p < α passes.
func significant(count, size []int, alpha float64) (stat, p float64, ok bool) {
	stat, p, _, defined := chiSquareRef(count, size)
	if !defined || !(p < alpha) {
		return stat, p, false
	}
	return stat, p, true
}

// evaluateCategorical tests one categorical itemset STUCCO-style: emit it
// when it is large (Eq. 2 above δ) and significant at the level's α.
func (m *refMiner) evaluateCategorical(c comb, alpha float64) {
	sup := m.suppOf(c.cover)
	if !(maxDiffRef(sup) > m.cfg.Delta) {
		return
	}
	stat, p, ok := significant(sup.Count, sup.Size, alpha)
	if !ok {
		return
	}
	m.emit(pattern.Contrast{
		Set:      pattern.NewItemset(c.catItems...),
		Supports: sup,
		Score:    m.scoreOf(sup),
		ChiSq:    stat,
		P:        p,
	})
}

// ---------------------------------------------------------------------------
// SDAD-CS reference (Algorithm 1), exhaustive: no optimistic estimate, no
// pruning rules, naive per-box counting.

type refSDAD struct {
	m         *refMiner
	contAttrs []int
	alpha     float64
	alive     bool
}

// sdad discretizes the continuous attributes of a combination within its
// categorical context and returns the contrast spaces found after the
// bottom-up merge. alive reports whether any split happened — the
// levelwise search extends the combination only then.
func (m *refMiner) sdad(c comb, alpha float64) ([]pattern.Contrast, bool) {
	r := &refSDAD{m: m, contAttrs: c.contAttrs, alpha: alpha}
	box := pattern.NewItemset(c.catItems...)
	d := r.explore(c.cover, box, 1, 0)
	d = r.merge(d)
	return d, r.alive
}

// explore is the recursive top-down part: split every continuous attribute
// at the lower-middle median of the current space (when the median strictly
// separates), form the cartesian product of boxes, and recurse into every
// box unconditionally.
func (r *refSDAD) explore(rows []int, box pattern.Itemset, level int, parentMeasure float64) []pattern.Contrast {
	if level > r.m.cfg.MaxRecursion || len(rows) < 2 {
		return nil
	}

	choices := make([][]pattern.Interval, len(r.contAttrs))
	splits := 0
	for i, attr := range r.contAttrs {
		cur := pattern.FullRange()
		if it, ok := box.ItemOn(attr); ok {
			cur = it.Range
		}
		med, hi, any := medianAndMax(r.m.d, attr, rows)
		if any && med > cur.Lo && med < hi && med < cur.Hi {
			choices[i] = []pattern.Interval{{Lo: cur.Lo, Hi: med}, {Lo: med, Hi: cur.Hi}}
			splits++
		} else {
			choices[i] = []pattern.Interval{cur}
		}
	}
	if splits == 0 {
		return nil
	}
	r.alive = true

	var contrasts, tentative []pattern.Contrast // D and Dtemp
	r.forEachBox(choices, func(ivs []pattern.Interval) {
		childBox := box
		for i, attr := range r.contAttrs {
			childBox = childBox.With(pattern.RangeItem(attr, ivs[i].Lo, ivs[i].Hi))
		}
		if childBox.Equal(box) {
			return // no attribute refined
		}
		// Naive per-row membership test against the box's intervals.
		// (Lo, Hi] semantics: NaN readings belong to no box.
		var boxRows []int
		for _, row := range rows {
			in := true
			for i, attr := range r.contAttrs {
				if !ivs[i].Contains(r.m.d.Cont(attr, row)) {
					in = false
					break
				}
			}
			if in {
				boxRows = append(boxRows, row)
			}
		}
		sup := r.m.suppOf(boxRows)
		score := r.m.scoreOf(sup)

		// Recurse unconditionally (the oracle has no optimistic estimate).
		child := r.explore(boxRows, childBox, level+1, score)
		explored := len(child) > 0
		contrasts = append(contrasts, child...)

		// Algorithm 1 keeps the refined children, not the coarse parent,
		// unless the NP variant records explored spaces too.
		if explored && !r.m.cfg.RecordExplored {
			return
		}
		// Record when large and significant — immediately if the space
		// improves on its parent, tentatively otherwise (Dtemp).
		if !(maxDiffRef(sup) > r.m.cfg.Delta) {
			return
		}
		stat, p, ok := significant(sup.Count, sup.Size, r.alpha)
		if !ok {
			return
		}
		c := pattern.Contrast{Set: childBox, Supports: sup, Score: score, ChiSq: stat, P: p}
		if score > parentMeasure {
			contrasts = append(contrasts, c)
		} else {
			tentative = append(tentative, c)
		}
	})

	// Tentative contrasts survive only if some space of this call improved.
	if len(contrasts) > 0 {
		return append(contrasts, tentative...)
	}
	return nil
}

// forEachBox visits the cartesian product of interval choices.
func (r *refSDAD) forEachBox(choices [][]pattern.Interval, visit func([]pattern.Interval)) {
	ivs := make([]pattern.Interval, len(choices))
	var rec func(i int)
	rec = func(i int) {
		if i == len(choices) {
			visit(ivs)
			return
		}
		for _, iv := range choices[i] {
			ivs[i] = iv
			rec(i + 1)
		}
	}
	rec(0)
}

// medianAndMax computes the lower-middle median and the maximum of the
// finite values of attr over the rows; any is false when every reading is
// missing.
func medianAndMax(d *dataset.Dataset, attr int, rows []int) (med, max float64, any bool) {
	vals := make([]float64, 0, len(rows))
	for _, r := range rows {
		v := d.Cont(attr, r)
		if v == v { // skip NaN
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, 0, false
	}
	sort.Float64s(vals)
	// Lower-middle element: for even n the element at (n−1)/2, so a split
	// at the median always leaves at least one row strictly above it when
	// two distinct values exist. A zero median is +0, whichever of −0 and
	// +0 the sort put there.
	med = vals[(len(vals)-1)/2]
	if med == 0 {
		med = 0
	}
	return med, vals[len(vals)-1], true
}

// merge is the bottom-up part of Algorithm 1 in its plainest possible
// form: sort spaces by ascending hyper-volume, repeatedly take the FIRST
// pair (in that order) that merges, replace it with the union, re-sort the
// whole list and restart the scan. No failure memoization, no splicing —
// the production merge claims those optimizations preserve this exact
// visit order, and the differential harness holds it to that.
func (r *refSDAD) merge(d []pattern.Contrast) []pattern.Contrast {
	if len(d) < 2 {
		return d
	}
	seen := map[string]bool{}
	spaces := make([]pattern.Contrast, 0, len(d))
	for _, c := range d {
		if !seen[c.Set.Key()] {
			seen[c.Set.Key()] = true
			spaces = append(spaces, c)
		}
	}
	for {
		sort.Slice(spaces, func(i, j int) bool { return volumeLessRef(spaces[i], spaces[j]) })
		merged := false
		for i := 0; i < len(spaces) && !merged; i++ {
			for j := i + 1; j < len(spaces); j++ {
				if u, ok := r.tryMerge(spaces[i], spaces[j]); ok {
					rest := make([]pattern.Contrast, 0, len(spaces)-1)
					for x, c := range spaces {
						if x != i && x != j {
							rest = append(rest, c)
						}
					}
					spaces = append(rest, u)
					merged = true
					break
				}
			}
		}
		if !merged {
			return spaces
		}
	}
}

// tryMerge combines two spaces that are contiguous on exactly one
// continuous attribute, pass the chi-square similarity test, and whose
// union is still large and significant. The union's supports are recounted
// naively over the full dataset rather than summed — the two halves must
// be disjoint, so a recount that disagrees with the sum would expose a
// double-counting bug.
func (r *refSDAD) tryMerge(a, b pattern.Contrast) (pattern.Contrast, bool) {
	attr, union, ok := contiguousRef(a.Set, b.Set)
	if !ok {
		return pattern.Contrast{}, false
	}
	merged := a.Set.With(pattern.RangeItem(attr, union.Lo, union.Hi))

	// Similarity: the group compositions of the two halves must not differ
	// significantly; a degenerate table reads as "indistinguishable".
	simP := 1.0
	if res, err := stats.ChiSquareTable([][]float64{
		intsToFloats(a.Supports.Count),
		intsToFloats(b.Supports.Count),
	}); err == nil {
		simP = res.P
	}
	if simP < r.alpha {
		return pattern.Contrast{}, false
	}

	sup := r.m.suppOf(r.m.coverOf(merged.Items()))
	for g := range sup.Count {
		if sup.Count[g] != a.Supports.Count[g]+b.Supports.Count[g] {
			// Disjointness violated: surface it as a non-merge so the
			// differential driver flags the divergence loudly.
			return pattern.Contrast{}, false
		}
	}
	if !(maxDiffRef(sup) > r.m.cfg.Delta) {
		return pattern.Contrast{}, false
	}
	stat, p, ok := significant(sup.Count, sup.Size, r.alpha)
	if !ok {
		return pattern.Contrast{}, false
	}
	return pattern.Contrast{
		Set:      merged,
		Supports: sup,
		Score:    r.m.scoreOf(sup),
		ChiSq:    stat,
		P:        p,
	}, true
}

// contiguousRef reports whether two boxes differ on exactly one continuous
// attribute with contiguous half-open ranges.
func contiguousRef(a, b pattern.Itemset) (attr int, union pattern.Interval, ok bool) {
	if a.Len() != b.Len() {
		return 0, pattern.Interval{}, false
	}
	attr = -1
	for i := 0; i < a.Len(); i++ {
		ia, ib := a.Item(i), b.Item(i)
		if ia.Equal(ib) {
			continue
		}
		if ia.Attr != ib.Attr || ia.Kind != dataset.Continuous || ib.Kind != dataset.Continuous {
			return 0, pattern.Interval{}, false
		}
		if attr != -1 {
			return 0, pattern.Interval{}, false
		}
		u, contiguous := ia.Range.Union(ib.Range)
		if !contiguous {
			return 0, pattern.Interval{}, false
		}
		attr, union = ia.Attr, u
	}
	if attr == -1 {
		return 0, pattern.Interval{}, false
	}
	return attr, union, true
}

// volumeLessRef is the merge scan order: ascending hyper-volume, unbounded
// ranges last, ties broken on the canonical key.
func volumeLessRef(a, b pattern.Contrast) bool {
	va, vb := a.Set.Volume(), b.Set.Volume()
	if va != vb {
		if math.IsInf(va, 1) {
			return false
		}
		if math.IsInf(vb, 1) {
			return true
		}
		return va < vb
	}
	return a.Set.Key() < b.Set.Key()
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
