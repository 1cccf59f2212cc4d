package core

import (
	"math"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
)

// Meaningfulness classifies one contrast against the three criteria the
// paper requires of patterns worth showing a user (§1, §4.3): a meaningful
// contrast is non-redundant, productive, and independently productive.
type Meaningfulness struct {
	// Redundant: some subset has a statistically indistinguishable
	// support difference (Eq. 14–16) — e.g. the {female, pregnant}
	// example, where the superset adds nothing.
	Redundant bool
	// Unproductive: some binary partition (a, c\a) explains the contrast
	// as a product of its parts (Eq. 17 fails, or the parts' association
	// is not statistically confirmed).
	Unproductive bool
	// NotIndependentlyProductive: a superset in the final list explains
	// the contrast — after removing the superset's rows, what remains is
	// no longer a significant contrast (the hurricane example of §4.3).
	NotIndependentlyProductive bool
	// ExplainedBy is the canonical key of the superset that failed the
	// independent-productivity check ("" unless
	// NotIndependentlyProductive) — the provenance detail the explain
	// path renders.
	ExplainedBy string
}

// Meaningful reports whether none of the three defects applies.
func (m Meaningfulness) Meaningful() bool {
	return !m.Redundant && !m.Unproductive && !m.NotIndependentlyProductive
}

// verdict renders the classification as the KindFilter trace vocabulary:
// "kept", "redundant", "unproductive" or "dependent:<superset key>", in
// defect-precedence order.
func (m Meaningfulness) verdict() string {
	switch {
	case m.Redundant:
		return "redundant"
	case m.Unproductive:
		return "unproductive"
	case m.NotIndependentlyProductive:
		return "dependent:" + m.ExplainedBy
	default:
		return "kept"
	}
}

// Classify evaluates each contrast's meaningfulness at significance level
// alpha. The independent-productivity check is relative to the other
// contrasts in cs, as in the paper ("the check is performed only on
// supersets present in the final list"). Subset supports are counted on
// the dataset's shared bitmap index, which Classify builds on first use
// exactly as Mine does.
func Classify(d *dataset.Dataset, cs []pattern.Contrast, alpha float64) []Meaningfulness {
	ix, _ := bitmap.Shared(d)
	return classify(d, cs, alpha, newSupportMemo(d, ix))
}

// classify is Classify over a caller's support memo, so MineContext can
// hand the filter the memo its search already filled.
func classify(d *dataset.Dataset, cs []pattern.Contrast, alpha float64, memo *supportMemo) []Meaningfulness {
	out := make([]Meaningfulness, len(cs))
	for i, c := range cs {
		out[i].Redundant = isRedundant(c, alpha, memo)
		out[i].Unproductive = isUnproductive(d, c, alpha, memo)
		explainedBy, indep := isIndependentlyProductive(c, cs, alpha, memo)
		out[i].NotIndependentlyProductive = !indep
		out[i].ExplainedBy = explainedBy
	}
	return out
}

// isRedundant applies the CLT bound of Eq. 14–16 against every
// drop-one-item subset.
func isRedundant(c pattern.Contrast, alpha float64, memo *supportMemo) bool {
	if c.Set.Len() < 2 {
		return false
	}
	_, redundant := redundantByCLT(c.Set, c.Supports, alpha, memo.supports)
	return redundant
}

// isUnproductive checks Eq. 17 over every binary partition of the itemset:
// the contrast's support difference must exceed — statistically
// significantly, since the dataset is a sample — the support difference
// expected if the two parts were independent within each group. This is
// exactly the Table 3 analysis: a top pattern whose supports match the
// product of its parts' supports is "not meaningful since the difference
// in support is not statistically different from the expected difference".
func isUnproductive(d *dataset.Dataset, c pattern.Contrast, alpha float64, memo *supportMemo) bool {
	n := c.Set.Len()
	if n < 2 {
		return false // singletons are trivially productive
	}
	items := c.Set.Items()
	// Orient the pair along the contrast itself: x is the over-represented
	// group. (Orienting by group size instead flips the inequality's sign
	// whenever the over-represented group is the minority — precisely the
	// imbalanced-manufacturing case the paper targets.)
	x, y := extremeGroups(c.Supports)
	diffC := c.Supports.Supp(x) - c.Supports.Supp(y)
	z := stats.ZCritical(alpha)

	// Enumerate binary partitions (a, c\a); mask and its complement give
	// the same partition, so iterate half the range.
	for mask := 1; mask < 1<<uint(n-1); mask++ {
		var a, rest []pattern.Item
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				a = append(a, items[i])
			} else {
				rest = append(rest, items[i])
			}
		}
		sa := memo.supports(pattern.NewItemset(a...))
		sr := memo.supports(pattern.NewItemset(rest...))
		// Expected supports under within-group independence of the parts.
		eX := sa.Supp(x) * sr.Supp(x)
		eY := sa.Supp(y) * sr.Supp(y)
		if diffC <= eX-eY {
			return true // Eq. 17 fails outright
		}
		// Statistical confirmation (CLT on the expected supports, as in
		// Eq. 14–16): the observed difference must clear the expected
		// difference by more than sampling noise.
		va := eX * (1 - eX) / float64(c.Supports.Size[x])
		vb := eY * (1 - eY) / float64(c.Supports.Size[y])
		if diffC <= eX-eY+z*math.Sqrt(va+vb) {
			return true
		}
	}
	return false
}

// isIndependentlyProductive checks the contrast against every superset in
// the final list. For a superset t ⊃ c with extra items e = t \ c, the
// rows r(c) − r(c ∧ e) must still form a contrast (§4.3's hurricane
// example) — evaluated *conditionally*, within the universe of rows where
// e does not hold. Conditioning matters: when two independent causes both
// skew toward the minority group (Table 7's chip-attach module and tray
// row), removing the other cause's rows shrinks the minority group far
// more than the majority, and an unconditional support comparison would
// wrongly conclude the surviving pattern carries no signal.
// It returns the canonical key of the first superset that explains the
// contrast ("" when the contrast stands on its own).
//
// No rows are scanned. SubsetOf is exact item equality, so t = c ∪ e
// exactly and r(c ∧ e) = r(t): the remainder's per-group counts are
// memo(c) − memo(t), and the extra items' counts are memo(e).
func isIndependentlyProductive(c pattern.Contrast, all []pattern.Contrast,
	alpha float64, memo *supportMemo) (explainedBy string, ok bool) {

	var cCounts []int
	x, y := extremeGroups(c.Supports) // orientation of the original contrast
	sizes := memo.sizes
	for _, t := range all {
		if t.Set.Len() <= c.Set.Len() || !c.Set.SubsetOf(t.Set) {
			continue
		}
		// The superset's extra conditions.
		extra := t.Set
		for _, attr := range c.Set.Attrs() {
			extra = extra.Without(attr)
		}
		if extra.Len() == 0 {
			continue
		}
		if cCounts == nil {
			cCounts = memo.supports(c.Set).Count
		}
		tCounts := memo.supports(t.Set).Count
		remCounts := make([]int, len(sizes))
		remainder := 0
		for g := range sizes {
			remCounts[g] = cCounts[g] - tCounts[g]
			remainder += remCounts[g]
		}
		// An empty remainder means the extra items cover everything c
		// covers (e.g. a merged full-range artifact): no evidence either
		// way.
		if remainder == 0 {
			continue
		}
		// Universe: rows where the extra conditions do NOT hold.
		extraCounts := memo.supports(extra).Count
		universe := make([]int, len(sizes))
		for g := range sizes {
			universe[g] = sizes[g] - extraCounts[g]
		}
		// If the over-represented group exists only inside the superset
		// (hurricane: every "develops" day has all three conditions), the
		// pattern is explained by the superset.
		if universe[x] == 0 {
			return t.Set.Key(), false
		}
		// Conditional orientation: within the universe, the original
		// over-represented group must stay over-represented…
		rateX := float64(remCounts[x]) / float64(universe[x])
		rateY := 0.0
		if universe[y] > 0 {
			rateY = float64(remCounts[y]) / float64(universe[y])
		}
		if rateX <= rateY {
			return t.Set.Key(), false
		}
		// …and significantly so.
		test, err := stats.ChiSquare2xK(remCounts, universe)
		if err != nil {
			return t.Set.Key(), false // no discriminating structure left
		}
		// NaN-safe: only a definite P < α keeps the contrast independently
		// productive; NaN (tiny remainder samples) must fail the test.
		if !(test.P < alpha) {
			return t.Set.Key(), false
		}
	}
	return "", true
}

// CountMeaningful tallies a classification: (meaningful, meaningless).
// It backs the paper's Table 6.
func CountMeaningful(ms []Meaningfulness) (meaningful, meaningless int) {
	for _, m := range ms {
		if m.Meaningful() {
			meaningful++
		} else {
			meaningless++
		}
	}
	return meaningful, meaningless
}
