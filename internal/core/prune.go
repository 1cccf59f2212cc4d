package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
	"sdadcs/internal/trace"
)

// pruneTable is the lookup table of §4.1: compact keys
// (pattern.Itemset.CompactKey) of itemsets found prunable. A space is cut
// when any subset of its items is present. Generation (miner.expand)
// probes the categorical candidates, so a cut one is never built; SDAD-CS
// probes each child box. The table is written only between levels, so
// concurrent workers read it without locks.
type pruneTable map[string]struct{}

// insert records set in the table under its compact key.
func (t pruneTable) insert(set pattern.Itemset) {
	var stack [128]byte
	t[string(set.AppendCompactKey(stack[:0]))] = struct{}{}
}

// prunedSubset reports whether the table holds a non-empty subset of a
// space's items: the §4.1 cut. mask names the first such subset in mask
// order, bit i set for item i (subsetKey formats it): the provenance
// answer to "which earlier prune killed this space".
//
// next holds at most one item. With none, the space is set itself and
// every subset is probed: an SDAD-CS box. With one, whose attribute comes
// after all of
// set's, the space is the candidate set ∪ {next}, and only the subsets
// that hold next are probed, the candidate itself excepted. That is how
// generation probes a categorical candidate of a survivor set: none of a
// survivor's own subsets is in the table (a recorded space has no
// children, a cut one never survives, and SDAD-CS records only boxes that
// hold a range item), and the candidate has not been decided yet, so the
// first hit is the one the full enumeration finds.
//
// Spaces are at most MaxDepth items, so the enumeration is tiny. Items
// are in attribute order, so a subset's compact key is its items'
// encodings concatenated in mask order: each item is encoded once per
// call, into stack buffers, and no probe allocates.
func (t pruneTable) prunedSubset(set pattern.Itemset, next ...pattern.Item) (mask int, ok bool) {
	n := set.Len() + len(next)
	if len(t) == 0 || n == 0 {
		return 0, false
	}
	var encStack, bufStack [256]byte
	var endStack [16]int
	enc, ends := encStack[:0], endStack[:0]
	for i := 0; i < set.Len(); i++ {
		enc = set.Item(i).AppendCompactKey(enc)
		ends = append(ends, len(enc))
	}
	for _, it := range next {
		enc = it.AppendCompactKey(enc)
		ends = append(ends, len(enc))
	}
	from, to := 1, 1<<uint(n)
	if len(next) > 0 {
		from, to = 1<<uint(n-1), to-1
	}
	buf := bufStack[:0]
	for mask := from; mask < to; mask++ {
		buf = buf[:0]
		start := 0
		for i, end := range ends {
			if mask&(1<<uint(i)) != 0 {
				buf = append(buf, enc[start:end]...)
			}
			start = end
		}
		if _, ok := t[string(buf)]; ok {
			return mask, true
		}
	}
	return 0, false
}

// subsetKey returns the Key of the items of set that mask selects — the
// subset a traced lookup-table prune names.
func subsetKey(set pattern.Itemset, mask int) string {
	items := make([]pattern.Item, 0, set.Len())
	for i := 0; i < set.Len(); i++ {
		if mask&(1<<uint(i)) != 0 {
			items = append(items, set.Item(i))
		}
	}
	return pattern.NewItemset(items...).Key()
}

// pruneDecision is the outcome of the §4.3 rules for one space.
type pruneDecision struct {
	// SkipContrast: the space cannot be (or should not be reported as) a
	// contrast.
	SkipContrast bool
	// SkipChildren: do not explore specializations of the space.
	SkipChildren bool
	// Record: insert the space's key into the lookup table so later
	// combinations with this space as a subset are cut.
	Record bool
}

// evaluatePruning applies the pruning rules p enables to a counted space.
// It is the one implementation of the rules: the levelwise miner's
// categorical nodes (the STUCCO baseline's whole search, with
// MinDeviation, ExpectedCount and ChiSquareOE only) and SDAD-CS's spaces
// both decide through it.
//
// crit is the χ² critical value at the level's α with one degree of
// freedom per group beyond the first — constant across a level, so the
// caller computes it once (chiSquareCrit) instead of once per space.
// sup holds the space's per-group supports; set its itemset. The CLT
// redundancy rule compares the space's support difference against each
// subset obtained by dropping one item (Eq. 14–16); subset supports are
// read from memo, which may be nil when RedundancyCLT is off. rec (nil =
// disabled) counts which rule fired; tr (nil = disabled) additionally
// records the decision itself — which rule, at what observed statistic,
// against which bound. Both sinks are safe for concurrent use, so this
// function stays callable from parallel per-level workers; level/worker
// only annotate trace events.
func evaluatePruning(p Pruning, set pattern.Itemset, sup pattern.Supports,
	delta, alpha, crit float64, totalRows int,
	memo *supportMemo,
	rec *metrics.Recorder, tr *trace.Tracer, level, worker int) pruneDecision {

	// Minimum deviation size: no group reaches δ, so neither this space
	// nor any specialization can be a large contrast.
	if p.MinDeviation && !sup.LargeIn(delta) {
		rec.PruneHit(metrics.PruneMinDeviation)
		if tr.Enabled() {
			tr.Prune(level, worker, set, metrics.PruneMinDeviation.String(),
				maxSupport(sup), delta)
		}
		return pruneDecision{SkipContrast: true, SkipChildren: true, Record: true}
	}
	// Expected count: statistical tests are invalid below an expected
	// cell count of 5, and specializations only shrink counts.
	if p.ExpectedCount {
		if min := minExpected(sup, totalRows); min < 5 {
			rec.PruneHit(metrics.PruneExpectedCount)
			if tr.Enabled() {
				tr.Prune(level, worker, set, metrics.PruneExpectedCount.String(), min, 5)
			}
			return pruneDecision{SkipContrast: true, SkipChildren: true, Record: true}
		}
	}
	// CLT redundancy: the support difference is statistically the same as
	// a subset's, so this space (and its supersets) add nothing.
	if p.RedundancyCLT && set.Len() >= 2 {
		if det, redundant := redundantByCLT(set, sup, alpha, memo); redundant {
			rec.PruneHit(metrics.PruneRedundancyCLT)
			if tr.Enabled() {
				tr.Prune(level, worker, set,
					metrics.PruneRedundancyCLT.String()+":"+det.subset.Key(),
					det.diff, det.half)
			}
			return pruneDecision{SkipContrast: true, SkipChildren: true, Record: true}
		}
	}
	var d pruneDecision
	// Pure space: PR = 1 means one group is absent; the space itself is a
	// fine contrast but adding attributes only produces redundant ones.
	if p.PureSpace && sup.PR() >= 1 && sup.TotalCount() > 0 {
		rec.PruneHit(metrics.PrunePureSpace)
		if tr.Enabled() {
			tr.Prune(level, worker, set, metrics.PrunePureSpace.String(), sup.PR(), 1)
		}
		d.SkipChildren = true
		d.Record = true
	}
	// Chi-square optimistic estimate: if no specialization can reach the
	// critical value at the current α, children cannot be significant.
	if p.ChiSquareOE && !d.SkipChildren {
		bound := stats.ChiSquareOptimistic(sup.Count, sup.Size)
		if bound < crit {
			rec.PruneHit(metrics.PruneChiSquareOE)
			if tr.Enabled() {
				tr.Prune(level, worker, set, metrics.PruneChiSquareOE.String(), bound, crit)
			}
			d.SkipChildren = true
		}
	}
	return d
}

// chiSquareCrit is the critical value the χ² optimistic-estimate rule
// compares against: the (1−α) quantile of χ² with groups−1 degrees of
// freedom.
func chiSquareCrit(alpha float64, groups int) float64 {
	return stats.ChiSquareQuantile(1-alpha, groups-1)
}

// maxSupport returns the largest per-group support — the statistic the
// minimum-deviation rule tests against δ.
func maxSupport(sup pattern.Supports) float64 {
	max := 0.0
	for g := 0; g < sup.Groups(); g++ {
		if s := sup.Supp(g); s > max {
			max = s
		}
	}
	return max
}

// minExpected returns the smallest expected cell count of the
// pattern × group contingency table (the expected-count rule prunes when
// it is below 5).
func minExpected(sup pattern.Supports, totalRows int) float64 {
	covered := sup.TotalCount()
	min := math.Inf(1)
	for _, gs := range sup.Size {
		if e := float64(covered) * float64(gs) / float64(totalRows); e < min {
			min = e
		}
	}
	return min
}

// cltDetail reports which subset triggered the CLT redundancy rule and
// at which statistics — the payload of the traced prune decision.
type cltDetail struct {
	subset pattern.Itemset
	diff   float64 // the current itemset's support difference
	half   float64 // the half-width α·sqrt(a+b) of the subset's bound
}

// redundantByCLT implements the Eq. 14–16 check: for each subset obtained
// by dropping one item, if the current support difference lies within the
// bound diff_subset ± α·sqrt(a+b) around the subset's difference, the
// current itemset is statistically the same contrast. Subset supports come
// from memo by compact key (supportsWithout); the subset itemset itself is
// built only for the returned detail.
//
// The multiplier is the paper's literal α (not the z critical value): the
// resulting bound is deliberately razor-thin, so the rule fires only on
// (near-)functional dependence — the {female, pregnant} example, equipment
// attributes that mirror each other — and never on a space whose children
// might hide a local interaction. Using z_{1−α/2} here would prune the
// very quadrants whose refinement reveals multivariate structure (the
// age × hours interaction of Table 1 dilutes to statistical redundancy at
// the first split level).
func redundantByCLT(set pattern.Itemset, sup pattern.Supports, alpha float64,
	memo *supportMemo) (cltDetail, bool) {

	if set.Len() < 2 {
		return cltDetail{}, false // the only subset is empty
	}
	x, y := extremeGroups(sup)
	diffCurr := sup.Supp(x) - sup.Supp(y)
	for i := 0; i < set.Len(); i++ {
		sub := memo.supportsWithout(set, i)
		diffSub := sub.Supp(x) - sub.Supp(y)
		a := sub.Supp(x) * (1 - sub.Supp(x)) / float64(sub.Size[x])
		b := sub.Supp(y) * (1 - sub.Supp(y)) / float64(sub.Size[y])
		half := alpha * math.Sqrt(a+b)
		if diffCurr >= diffSub-half && diffCurr <= diffSub+half {
			return cltDetail{subset: set.Without(set.Item(i).Attr), diff: diffCurr, half: half}, true
		}
	}
	return cltDetail{}, false
}

// extremeGroups returns the groups with the largest and smallest support.
func extremeGroups(sup pattern.Supports) (hi, lo int) {
	for g := 1; g < sup.Groups(); g++ {
		if sup.Supp(g) > sup.Supp(hi) {
			hi = g
		}
		if sup.Supp(g) < sup.Supp(lo) {
			lo = g
		}
	}
	return hi, lo
}

// supportMemo caches itemset supports over the full dataset, shared by the
// CLT redundancy rule and the meaningfulness filters. It is safe for
// concurrent use (parallel level mining recomputes at worst).
//
// A support is counted on bitmaps, never by scanning rows: a categorical
// item's cover is the index's value bitmap, a range item's (lo,hi] cover
// is the rank range of a sorted (value, row) column, and the per-group
// counts are one fused popcount of the ANDed covers. The sorted columns
// are built lazily, per continuous attribute, and belong to the memo: they
// live exactly as long as one Mine (or one Classify call), so nothing
// outlives it in a long-running service or stream.
type supportMemo struct {
	d     *dataset.Dataset
	ix    *bitmap.Index
	sizes []int
	mu    sync.Mutex
	// cache maps itemsets' compact keys to their supports; values are
	// deterministic functions of the key, so racing writers are harmless.
	cache map[string]pattern.Supports
	// cols[attr] is continuous attribute attr's sorted column, built on
	// first use.
	cols []sortedColumn
}

// sortedColumn is a continuous attribute's non-NaN values in ascending
// order, each paired with its row. rows has the row type of a
// dataset.View, so an SDAD-CS run that starts from the whole dataset
// fills its root boxes in this order without a widened copy.
type sortedColumn struct {
	once sync.Once
	vals []float64
	rows []int
}

// newSupportMemo returns an empty memo over d and its index. sizes is
// d.GroupSizes(), which MineContext has already counted, so the group
// column is not scanned again. The memo keeps its own copy: sharing the
// miner's slice made serve-mixed mining jobs about 10 % slower, a
// cache-line effect that a separate copy (or a padded one) removes.
func newSupportMemo(d *dataset.Dataset, ix *bitmap.Index, sizes []int) *supportMemo {
	return &supportMemo{
		d:     d,
		ix:    ix,
		sizes: slices.Clone(sizes),
		cache: make(map[string]pattern.Supports),
		cols:  make([]sortedColumn, d.NumAttrs()),
	}
}

// supports returns the itemset's supports over the full dataset. A probe
// builds the compact key in a stack buffer and does not allocate; only an
// insert copies the key.
func (m *supportMemo) supports(set pattern.Itemset) pattern.Supports {
	var stack [128]byte
	key := set.AppendCompactKey(stack[:0])
	if s, ok := m.lookup(key); ok {
		return s
	}
	return m.insert(key, set)
}

// supportsWithout returns the supports of set without its i-th item — a
// drop-one subset of the CLT rule. Items are in attribute order, so the
// subset's compact key is the other items' encodings in order: a probe
// builds it in a stack buffer, and only a miss builds the subset itemset.
func (m *supportMemo) supportsWithout(set pattern.Itemset, i int) pattern.Supports {
	var stack [128]byte
	key := stack[:0]
	for j := 0; j < set.Len(); j++ {
		if j != i {
			key = set.Item(j).AppendCompactKey(key)
		}
	}
	if s, ok := m.lookup(key); ok {
		return s
	}
	return m.insert(key, set.Without(set.Item(i).Attr))
}

// lookup returns the cached supports under a compact key.
func (m *supportMemo) lookup(key []byte) (pattern.Supports, bool) {
	m.mu.Lock()
	s, ok := m.cache[string(key)]
	m.mu.Unlock()
	return s, ok
}

// insert counts set, whose compact key is key, and caches its supports.
func (m *supportMemo) insert(key []byte, set pattern.Itemset) pattern.Supports {
	s := pattern.CountsToSupports(m.count(set), m.sizes)
	m.mu.Lock()
	m.cache[string(key)] = s
	m.mu.Unlock()
	return s
}

// count returns the itemset's per-group row counts: the AND of its item
// covers, popcounted against the group masks. A lone categorical item is
// counted straight off its shared value bitmap; index bitmaps are never
// written.
func (m *supportMemo) count(set pattern.Itemset) []int {
	counts := make([]int, len(m.sizes))
	var cover *bitmap.Set // nil: every row
	owned := false        // cover is this call's own bitmap
	for i := 0; i < set.Len(); i++ {
		it := set.Item(i)
		var c *bitmap.Set
		fresh := it.Kind == dataset.Continuous
		if fresh {
			c = m.rangeCover(it.Attr, it.Range)
		} else {
			c = m.ix.Value(it.Attr, it.Code)
		}
		switch {
		case cover == nil:
			cover, owned = c, fresh
		case owned:
			cover.AndInto(c, cover)
		case fresh:
			cover, owned = c.AndInto(cover, c), true
		default:
			cover, owned = cover.And(c), true
		}
	}
	if cover == nil {
		copy(counts, m.sizes)
		return counts
	}
	m.ix.GroupCountsInto(cover, counts)
	return counts
}

// rangeCover returns a fresh bitmap of the rows whose attr value lies in
// (iv.Lo, iv.Hi] — the rank range between two binary searches of the
// attribute's sorted column. NaN values are not in the column, so they
// match no range, exactly as the (Lo, Hi] comparison rejects them.
func (m *supportMemo) rangeCover(attr int, iv pattern.Interval) *bitmap.Set {
	out := bitmap.New(m.d.Rows())
	if !(iv.Lo < iv.Hi) {
		return out // empty, or a NaN bound
	}
	col := m.column(attr)
	from := sort.Search(len(col.vals), func(i int) bool { return col.vals[i] > iv.Lo })
	to := sort.Search(len(col.vals), func(i int) bool { return col.vals[i] > iv.Hi })
	for _, r := range col.rows[from:to] {
		out.Add(r)
	}
	return out
}

// column returns attr's sorted column, building it on first use.
func (m *supportMemo) column(attr int) *sortedColumn {
	col := &m.cols[attr]
	col.once.Do(func() {
		vals := m.d.ContColumn(attr)
		rows := make([]int, 0, len(vals))
		for r, v := range vals {
			if v == v { // NaN matches no range
				rows = append(rows, r)
			}
		}
		slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(vals[a], vals[b]) })
		col.rows = rows
		col.vals = make([]float64, len(rows))
		for i, r := range rows {
			col.vals[i] = vals[r]
		}
	})
	return col
}
