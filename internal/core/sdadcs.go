package core

import (
	"context"
	"math"
	"sort"
	"time"

	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
	"sdadcs/internal/trace"
)

// sdadRun holds the state of one SDAD-CS invocation (Algorithm 1): a fixed
// categorical context catSet, the continuous attributes being jointly
// discretized, and the thresholds in force.
type sdadRun struct {
	// ctx is the mining context. A joint discretization can recurse and
	// merge long after the per-level check in miner.go has passed, so
	// cancellation is re-checked per split round (explore) and per merge
	// round (merge); nil means "never cancelled".
	ctx       context.Context
	d         *dataset.Dataset
	cfg       *Config
	prune     Pruning
	contAttrs []int
	alpha     float64 // Bonferroni-adjusted level α
	crit      float64 // χ² critical value at alpha (chiSquareCrit)
	threshold float64 // current top-k minimum support (interest measure)
	memo      *supportMemo
	scratch   *sdadScratch
	table     pruneTable // read-only during the run
	stats     Stats
	inserts   []pattern.Itemset // spaces this run records in the lookup table
	alive     bool              // at least one space survived pruning
	sizes     []int
	totalRows int
	// rec is the optional instrumentation sink (nil = disabled); shared
	// across concurrent runs, so only atomic operations.
	rec *metrics.Recorder
	// tr is the optional decision-event sink (nil = disabled); worker is
	// the per-level goroutine index trace events are attributed to.
	tr     *trace.Tracer
	worker int
	// ordered is the invariant of a run whose root view is the whole
	// dataset: the root assigns its rows in the memo's sorted-row order of
	// contAttrs[0] and the counting sort that fills boxes is stable, so
	// every box below the root lists its rows in ascending contAttrs[0]
	// order. That attribute's median and maximum in such a box are the
	// values at its rows (m−1)/2 and m−1. explore sets it at the root.
	ordered bool
}

// sdadScratch is one worker's reusable SDAD-CS buffers. A miner owns one
// per worker, indexed by the worker number evaluate receives, so the
// buffers grow once per Mine rather than once per node or box, and none
// outlives the Mine. Only partition bookkeeping lives here: every
// itemset, count slice and contrast a run hands on (to the tracer, the
// lookup table or the result) is its own allocation and never reused.
type sdadScratch struct {
	// vals holds one attribute's finite values in a box, for the selection
	// of its median: every attribute of a run that starts from a
	// categorical cover, and every attribute but contAttrs[0] below the
	// root of an ordered run (see sdadRun.ordered).
	vals  []float64
	boxOf []int32 // per row in fill order: the linear index of its box, or -1
	// cover backs the row view of the node a run starts from
	// (miner.coverView); it is read-only for the run.
	cover []int
	// levels[level-1] holds the partition of one split at that recursion
	// level; a box's child split uses the next level's, so the parent's
	// stay intact while its boxes recurse.
	levels []*sdadLevel
}

// sdadLevel is the partition of one explore call: the interval choices
// per continuous attribute, the box boundaries and odometer of
// find_combs, and the backing array of the boxes' row slices.
type sdadLevel struct {
	choices []splitChoice // per contAttrs entry
	cols    [][]float64   // per contAttrs entry: the attribute's column
	bounds  []int         // bounds[b] is box b's end in rows after the fill
	idx     []int         // the odometer: per contAttrs entry, a choice
	rows    []int         // the boxes' row slices, box after box
}

// splitChoice is one attribute's intervals in a split: both halves of a
// split at the median (n = 2), or the box's current range alone (n = 1).
type splitChoice struct {
	iv [2]pattern.Interval
	n  int
}

// level returns the buffers of a recursion level, adding it on first use.
func (s *sdadScratch) level(level int) *sdadLevel {
	for len(s.levels) < level {
		s.levels = append(s.levels, new(sdadLevel))
	}
	return s.levels[level-1]
}

// resize returns buf with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// run executes Algorithm 1 for the given categorical context and returns
// the contrast spaces found (after bottom-up merging).
func (r *sdadRun) run(catSet pattern.Itemset, cover dataset.View) []pattern.Contrast {
	r.stats.SDADCalls++
	r.rec.Add(metrics.SDADCalls, 1)
	var startTS int64
	var start time.Time
	if r.tr.Enabled() {
		startTS = r.tr.Now()
		start = time.Now()
	}
	d := r.explore(cover, catSet, 1, 0)
	d = r.merge(d)
	if r.tr.Enabled() {
		r.tr.SDAD(startTS, r.worker, catSet, cover.Len(), time.Since(start))
	}
	return d
}

// explore is the recursive top-down part: partition every continuous
// attribute at its median within the current space, form all 2^|ca| boxes
// (find_combs), and for each box decide — via the optimistic estimate —
// whether to recurse, to record a contrast, or to stop.
func (r *sdadRun) explore(view dataset.View, box pattern.Itemset, level int, parentMeasure float64) []pattern.Contrast {
	if level > r.cfg.MaxRecursion || view.Len() < 2 || r.cancelled() {
		return nil
	}
	// order is the sequence the boxes are filled in: the view itself, or
	// at the root of a whole-dataset run contAttrs[0]'s sorted rows, which
	// sets up the ordered invariant for every box below.
	order := view
	if level == 1 {
		r.ordered = view.Whole()
		if r.ordered {
			order = r.d.Restrict(r.memo.column(r.contAttrs[0]).rows)
		}
	}

	// partition(ca): split each attribute at the view's median, within the
	// box's current range.
	lv := r.scratch.level(level)
	lv.cols = resize(lv.cols, len(r.contAttrs))
	lv.choices = resize(lv.choices, len(r.contAttrs))
	cols, choices := lv.cols, lv.choices
	splits := 0
	for k, attr := range r.contAttrs {
		cur := currentRange(box, attr)
		cols[k] = r.d.ContColumn(attr)
		med, hi := r.medianMax(view, k, cols[k])
		if med > cur.Lo && med < hi && med < cur.Hi {
			choices[k] = splitChoice{iv: [2]pattern.Interval{
				{Lo: cur.Lo, Hi: med},
				{Lo: med, Hi: cur.Hi},
			}, n: 2}
			splits++
			if r.tr.Enabled() {
				r.tr.Split(level, r.worker, box, r.d.Attr(attr).Name,
					med, cur.Lo, cur.Hi)
			}
		} else {
			choices[k] = splitChoice{iv: [2]pattern.Interval{cur}, n: 1}
		}
	}
	if splits == 0 {
		return nil
	}
	r.rec.Add(metrics.Splits, splits)

	// Assign every view row to its space in a single pass: the interval
	// choices partition each attribute's current range, so each row lands
	// in exactly one space. This replaces 2^|ca| per-space scans.
	//
	// The assignment uses the same (Lo, Hi] half-open convention as the
	// recorded RangeItems, View.FilterRange and pattern.SupportsOf: a row
	// belongs to the low child of a split at m iff Lo < v <= m and to the
	// high child iff m < v <= Hi. Rows outside the box's current range on
	// any attribute — values tied exactly at the box's Lo, or beyond its
	// Hi, which a caller-supplied view may contain — belong to no space,
	// exactly as re-counting the recorded box would exclude them.
	//
	// The spaces' row slices are filled by counting sort: the first pass
	// records each row's space and counts rows per space, prefix sums give
	// each space's start, and a second pass fills one backing array in
	// fill order. The sort is stable, so every space keeps its rows in the
	// order they were visited: an ordered run's boxes ascend on
	// contAttrs[0] and take that attribute's median by position, while the
	// boxes of a run from a categorical cover stay in row order and select
	// every median.
	totalSpaces := 1
	for _, ch := range choices {
		totalSpaces *= ch.n
	}
	r.rec.Add(metrics.BoxesExplored, totalSpaces)
	n := order.Len()
	r.scratch.boxOf = resize(r.scratch.boxOf, n)
	boxOf := r.scratch.boxOf
	// bounds[b+1] counts space b's rows; after the prefix sum bounds[b] is
	// its start, and after the fill its end.
	lv.bounds = resize(lv.bounds, totalSpaces+1)
	bounds := lv.bounds
	clear(bounds)
	for i := 0; i < n; i++ {
		row := order.Row(i)
		linear := 0
		mult := 1
		for k := range choices {
			ch := &choices[k]
			v := cols[k][row]
			if v != v { // NaN: a missing reading belongs to no bin
				linear = -1
				break
			}
			if v <= ch.iv[0].Lo || v > ch.iv[ch.n-1].Hi {
				linear = -1 // outside the box under (Lo, Hi] semantics
				break
			}
			choice := 0
			if ch.n == 2 && v > ch.iv[0].Hi {
				choice = 1
			}
			linear += choice * mult
			mult *= ch.n
		}
		boxOf[i] = int32(linear)
		if linear >= 0 {
			bounds[linear+1]++
		}
	}
	for b := 1; b <= totalSpaces; b++ {
		bounds[b] += bounds[b-1]
	}
	lv.rows = resize(lv.rows, bounds[totalSpaces])
	backing := lv.rows
	for i, b := range boxOf {
		if b >= 0 {
			backing[bounds[b]] = order.Row(i)
			bounds[b]++
		}
	}

	var contrasts, tentative []pattern.Contrast // D and Dtemp
	// find_combs(p): iterate the cartesian product of interval choices.
	lv.idx = resize(lv.idx, len(choices))
	idx := lv.idx
	clear(idx)
	start := 0
	for linear := 0; ; linear++ {
		end := bounds[linear]
		r.exploreSpace(box, choices, idx, backing[start:end:end], level, parentMeasure, &contrasts, &tentative)
		start = end
		// Advance the odometer (idx[0] fastest, matching the linear index).
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < choices[i].n {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}

	// Lines 22–25: tentative contrasts (not better than their parent) are
	// kept only if some space of this call did improve.
	if len(contrasts) > 0 {
		return append(contrasts, tentative...)
	}
	return nil
}

// medianMax returns the lower-middle median and the maximum of
// contAttrs[k]'s column col over the view's finite values, or (0, 0) when
// it has none — what View.Median and View.MinMax report. All three ways
// follow dataset.QuantileSorted's rule:
//   - the whole dataset reads them by position off the memo's sorted
//     column;
//   - contAttrs[0] in a box of an ordered run reads them by position off
//     the box's rows, which ascend on it;
//   - every other box and attribute (each one of a run from a categorical
//     cover) takes one pass over the view into the worker's value scratch
//     and one selection.
//
// The maximum only feeds a med < hi test, so which zero it returns when
// the largest value is ±0 does not matter.
func (r *sdadRun) medianMax(view dataset.View, k int, col []float64) (med, hi float64) {
	switch {
	case view.Whole():
		sorted := r.memo.column(r.contAttrs[k]).vals
		m := len(sorted)
		if m == 0 {
			return 0, 0
		}
		return dataset.QuantileSorted(m, 0.5, func(i int) float64 { return sorted[i] }), sorted[m-1]
	case r.ordered && k == 0:
		m := view.Len() // every row of a box is finite on contAttrs
		return dataset.QuantileSorted(m, 0.5, func(i int) float64 { return col[view.Row(i)] }),
			col[view.Row(m-1)]
	}
	vals := r.scratch.vals[:0]
	n := view.Len()
	for i := 0; i < n; i++ {
		x := col[view.Row(i)]
		if x != x { // NaN
			continue
		}
		if len(vals) == 0 || x > hi {
			hi = x
		}
		vals = append(vals, x)
	}
	r.scratch.vals = vals
	return dataset.QuantileInPlace(vals, 0.5), hi
}

// exploreSpace processes one box of the current partition; rows holds the
// dataset row indices pre-assigned to this space.
func (r *sdadRun) exploreSpace(box pattern.Itemset,
	choices []splitChoice, idx []int, rows []int, level int, parentMeasure float64,
	contrasts, tentative *[]pattern.Contrast) {

	childBox, refined := r.childBox(box, choices, idx)
	if !refined {
		return // no attribute refined: same space as the parent
	}

	// Lookup-table check (Line 7).
	if r.prune.LookupTable {
		if mask, hit := r.table.prunedSubset(childBox); hit {
			r.rec.PruneHit(metrics.PruneLookupTable)
			if r.tr.Enabled() {
				r.tr.Prune(level, r.worker, childBox,
					metrics.PruneLookupTable.String()+":"+subsetKey(childBox, mask), 0, 0)
			}
			r.stats.SpacesPruned++
			return
		}
	}

	// Count supports in the space (Line 10).
	sub := r.d.Restrict(rows)
	r.stats.PartitionsEvaluated++
	counts := sub.GroupCounts()
	sup := pattern.CountsToSupports(counts, r.sizes)
	score := r.cfg.Measure.Eval(sup)
	if r.tr.Enabled() {
		r.tr.Space(level, r.worker, childBox, sub.Len(), counts)
	}

	// Pruning rules (§4.3).
	dec := evaluatePruning(r.prune, childBox, sup, r.cfg.Delta, r.alpha, r.crit,
		r.totalRows, r.memo, r.rec, r.tr, level, r.worker)
	if dec.Record && r.prune.LookupTable {
		r.inserts = append(r.inserts, childBox)
	}
	if dec.SkipContrast && dec.SkipChildren {
		r.stats.SpacesPruned++
		return
	}
	r.alive = true

	// Decide whether to explore further (Lines 12–13): recurse while the
	// optimistic estimate exceeds the current minimum support.
	explored := false
	if !dec.SkipChildren {
		oe := optimisticEstimate(sup, sub.Len(), len(r.contAttrs), r.cfg.OEMode, r.cfg.Measure)
		if oe > r.threshold {
			child := r.explore(sub, childBox, level+1, score)
			if len(child) > 0 {
				*contrasts = append(*contrasts, child...)
				explored = true
			}
		} else {
			r.rec.PruneHit(metrics.PruneOptimisticEstimate)
			if r.tr.Enabled() {
				r.tr.Prune(level, r.worker, childBox,
					metrics.PruneOptimisticEstimate.String(), oe, r.threshold)
			}
		}
	}
	if dec.SkipContrast || (explored && !r.cfg.RecordExploredSpaces) {
		if explored && r.tr.Enabled() {
			// Algorithm 1 keeps the refined children, not the coarse parent.
			r.tr.Prune(level, r.worker, childBox, "superseded_by_children",
				score, parentMeasure)
		}
		return
	}

	// Lines 17–21: record the space when it is large and significant —
	// immediately if it improves on its parent, tentatively otherwise.
	if sup.MaxDiff() <= r.cfg.Delta {
		if r.tr.Enabled() {
			r.tr.Prune(level, r.worker, childBox, "not_large",
				sup.MaxDiff(), r.cfg.Delta)
		}
		return
	}
	test, err := stats.ChiSquare2xK(sup.Count, r.sizes)
	// NaN-safe gate: only a definite P < α admits; an error or a NaN
	// P-value (degenerate table, tiny sample) must read as "not
	// significant", never as pass.
	if err != nil || !(test.P < r.alpha) {
		if r.tr.Enabled() {
			r.tr.Prune(level, r.worker, childBox, "not_significant",
				test.P, r.alpha)
		}
		return
	}
	if r.tr.Enabled() {
		r.tr.Emit(level, r.worker, childBox, score, test.Statistic, test.P, counts)
	}
	c := pattern.Contrast{
		Set:      childBox,
		Supports: sup,
		Score:    score,
		ChiSq:    test.Statistic,
		P:        test.P,
	}
	if score > parentMeasure {
		*contrasts = append(*contrasts, c)
	} else {
		*tentative = append(*tentative, c)
	}
}

// childBox returns the box that takes choices[k].iv[idx[k]] on each
// contAttrs[k] and box's items on every other attribute — what a chain of
// box.With over the range items builds — in one exact-size slice, by
// merging box's items (in attribute order) with the ascending contAttrs.
// refined is false, and nothing is allocated, when the child would equal
// box: every continuous attribute is already on box with the chosen range.
func (r *sdadRun) childBox(box pattern.Itemset, choices []splitChoice, idx []int) (child pattern.Itemset, refined bool) {
	n := box.Len()
	for k, attr := range r.contAttrs {
		iv := choices[k].iv[idx[k]]
		it, ok := box.ItemOn(attr)
		if !ok {
			n++
			refined = true
		} else if !it.Equal(pattern.RangeItem(attr, iv.Lo, iv.Hi)) {
			refined = true
		}
	}
	if !refined {
		return pattern.Itemset{}, false
	}
	items := make([]pattern.Item, 0, n)
	bi := 0
	for k, attr := range r.contAttrs {
		for ; bi < box.Len() && box.Item(bi).Attr <= attr; bi++ {
			if box.Item(bi).Attr < attr {
				items = append(items, box.Item(bi))
			}
		}
		iv := choices[k].iv[idx[k]]
		items = append(items, pattern.RangeItem(attr, iv.Lo, iv.Hi))
	}
	for ; bi < box.Len(); bi++ {
		items = append(items, box.Item(bi))
	}
	return pattern.SortedItemset(items), true
}

// cancelled reports whether the run's context has been cancelled; a nil
// context never is.
func (r *sdadRun) cancelled() bool {
	return r.ctx != nil && r.ctx.Err() != nil
}

// currentRange returns the box's interval on attr, or the full range.
func currentRange(box pattern.Itemset, attr int) pattern.Interval {
	if it, ok := box.ItemOn(attr); ok {
		return it.Range
	}
	return pattern.FullRange()
}

// merge is the bottom-up part (Lines 26–30): repeatedly combine contiguous
// spaces — smallest hyper-volume first — whose group distributions are
// statistically similar, as long as the merged contrast stays large and
// significant.
//
// The scan repeatedly takes the first mergeable pair in volume order.
// tryMerge is a pure function of the two contrasts, so a pair that failed
// once fails forever: failures are memoized and the rescan after a merge
// re-examines only pairs involving the new union (everything else is a map
// hit). The union is spliced into the volume order directly instead of
// re-sorting the whole list. This replaces the former
// re-sort-and-recompute-all-pairs restart, which made merge-heavy windows
// O(n³) chi-square evaluations; the visit order — and therefore the result
// — is unchanged.
//
// Each space's keys are computed once, when it enters the list: the
// compact key for the dedup and the failed-pair memo, the volume and the
// Key string for the visit order.
func (r *sdadRun) merge(d []pattern.Contrast) []pattern.Contrast {
	if len(d) < 2 {
		return d
	}
	// Deduplicate by key (Dtemp flushing can duplicate across levels).
	seen := make(map[string]bool, len(d))
	spaces := make([]mergeSpace, 0, len(d))
	for _, c := range d {
		if s := newMergeSpace(c); !seen[s.key] {
			seen[s.key] = true
			spaces = append(spaces, s)
		}
	}
	sortByVolume(spaces)

	type pairKey struct{ a, b string }
	failed := make(map[pairKey]struct{})
	for {
		if r.cancelled() {
			// A merge-heavy window can spend quadratic work per round; a
			// cancelled job returns the spaces merged so far instead of
			// finishing the rescan.
			return contrastsOf(spaces)
		}
		merged := false
	outer:
		for i := 0; i < len(spaces); i++ {
			for j := i + 1; j < len(spaces); j++ {
				key := pairKey{spaces[i].key, spaces[j].key}
				if _, done := failed[key]; done {
					continue
				}
				r.rec.Add(metrics.MergeAttempts, 1)
				u, ok := r.tryMerge(spaces[i].Contrast, spaces[j].Contrast)
				if !ok {
					failed[key] = struct{}{}
					continue
				}
				r.stats.MergeOps++
				r.rec.Add(metrics.MergeOps, 1)
				// Replace the pair with the union, splicing it into the
				// existing volume order (j > i, so remove j first).
				spaces = append(spaces[:j], spaces[j+1:]...)
				spaces = append(spaces[:i], spaces[i+1:]...)
				spaces = insertByVolume(spaces, newMergeSpace(u))
				merged = true
				break outer
			}
		}
		if !merged {
			return contrastsOf(spaces)
		}
	}
}

// mergeSpace is one space of the bottom-up merge with the keys every
// rescan reads: key (the compact key) identifies it in the dedup and the
// failed-pair memo, vol and name (its Key) place it in the visit order.
type mergeSpace struct {
	pattern.Contrast
	key  string
	name string
	vol  float64
}

func newMergeSpace(c pattern.Contrast) mergeSpace {
	return mergeSpace{Contrast: c, key: c.Set.CompactKey(), name: c.Set.Key(), vol: c.Set.Volume()}
}

// contrastsOf returns the merge's spaces as contrasts, in list order.
func contrastsOf(spaces []mergeSpace) []pattern.Contrast {
	out := make([]pattern.Contrast, len(spaces))
	for i, s := range spaces {
		out[i] = s.Contrast
	}
	return out
}

// insertByVolume inserts s into a volume-sorted slice at its ordered
// position (the same total order sortByVolume establishes).
func insertByVolume(spaces []mergeSpace, s mergeSpace) []mergeSpace {
	pos := sort.Search(len(spaces), func(i int) bool { return volumeLess(s, spaces[i]) })
	spaces = append(spaces, mergeSpace{})
	copy(spaces[pos+1:], spaces[pos:])
	spaces[pos] = s
	return spaces
}

// tryMerge combines two contrast spaces when they are contiguous on
// exactly one continuous attribute (identical elsewhere), their group
// distributions pass the chi-square similarity test at α, and the union is
// still a large, significant contrast.
func (r *sdadRun) tryMerge(a, b pattern.Contrast) (pattern.Contrast, bool) {
	attr, union, ok := contiguousOn(a.Set, b.Set)
	if !ok {
		return pattern.Contrast{}, false
	}
	merged := a.Set.With(pattern.RangeItem(attr, union.Lo, union.Hi))
	// Similarity: the two spaces must not differ significantly in their
	// group composition.
	simP := similarityP(a.Supports.Count, b.Supports.Count)
	if simP < r.alpha {
		if r.tr.Enabled() {
			r.tr.Merge(r.worker, merged, "reject_similarity", simP, 0)
		}
		return pattern.Contrast{}, false // significantly different: keep split
	}

	counts := make([]int, len(a.Supports.Count))
	for g := range counts {
		counts[g] = a.Supports.Count[g] + b.Supports.Count[g]
	}
	sup := pattern.CountsToSupports(counts, r.sizes)
	if sup.MaxDiff() <= r.cfg.Delta {
		if r.tr.Enabled() {
			r.tr.Merge(r.worker, merged, "reject_largeness", simP, sup.MaxDiff())
		}
		return pattern.Contrast{}, false
	}
	test, err := stats.ChiSquare2xK(sup.Count, r.sizes)
	// NaN-safe: a NaN P-value must not let a merge through.
	if err != nil || !(test.P < r.alpha) {
		if r.tr.Enabled() {
			r.tr.Merge(r.worker, merged, "reject_significance", simP, sup.MaxDiff())
		}
		return pattern.Contrast{}, false
	}
	if r.tr.Enabled() {
		r.tr.Merge(r.worker, merged, "merged", simP, sup.MaxDiff())
	}
	return pattern.Contrast{
		Set:      merged,
		Supports: sup,
		Score:    r.cfg.Measure.Eval(sup),
		ChiSq:    test.Statistic,
		P:        test.P,
	}, true
}

// similarityP is the P-value of the χ² test on the 2×k table whose rows
// are two spaces' per-group counts, or 1 when the table is degenerate.
// The table lives on the stack for up to eight groups.
func similarityP(a, b []int) float64 {
	k := len(a)
	var stack [16]float64
	cells := stack[:]
	if 2*k > len(cells) {
		cells = make([]float64, 2*k)
	}
	table := [2][]float64{cells[:k:k], cells[k : 2*k]}
	for g := range a {
		table[0][g] = float64(a[g])
		table[1][g] = float64(b[g])
	}
	if res, err := stats.ChiSquareTable(table[:]); err == nil {
		return res.P
	}
	return 1
}

// contiguousOn reports whether two boxes differ on exactly one continuous
// attribute with contiguous ranges (identical items elsewhere), returning
// that attribute and the union interval.
func contiguousOn(a, b pattern.Itemset) (attr int, union pattern.Interval, ok bool) {
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
			return 0, pattern.Interval{}, false // differ on two attributes
		}
		u, contiguous := ia.Range.Union(ib.Range)
		if !contiguous {
			return 0, pattern.Interval{}, false
		}
		attr, union = ia.Attr, u
	}
	if attr == -1 {
		return 0, pattern.Interval{}, false // identical boxes
	}
	return attr, union, true
}

// sortByVolume orders spaces by ascending hyper-volume (unbounded ranges
// last), breaking ties by key for determinism.
func sortByVolume(spaces []mergeSpace) {
	sort.Slice(spaces, func(i, j int) bool { return volumeLess(spaces[i], spaces[j]) })
}

// volumeLess is the total order sortByVolume and insertByVolume share:
// ascending hyper-volume, unbounded ranges last, ties broken by Key.
func volumeLess(a, b mergeSpace) bool {
	if a.vol != b.vol {
		if math.IsInf(a.vol, 1) {
			return false
		}
		if math.IsInf(b.vol, 1) {
			return true
		}
		return a.vol < b.vol
	}
	return a.name < b.name
}
