package core

import (
	"sdadcs/internal/pattern"
)

// optimisticEstimate bounds the interest measure achievable in any child
// space of a space with the given per-group supports (Eq. 5–11).
//
// spaceRows is the number of rows in the current space; numCont the number
// of continuous attributes being split. The returned bound is valid for
// the support-difference measure and, because PR ≤ 1, equally for the
// Surprising Measure (§4.2). For the pure purity-ratio measure the bound
// is 1 for any non-pure space (a single-row child always has PR = 1), so
// OE-based recursion pruning degenerates to the pure-space rule.
func optimisticEstimate(sup pattern.Supports, spaceRows, numCont int, mode OEMode, measure pattern.Measure) float64 {
	if measure == pattern.PurityRatio {
		if pr := sup.PR(); pr >= 1 {
			return pr
		}
		return 1
	}

	maxInstChild := maxInstancesChild(spaceRows, numCont, mode)
	k := sup.Groups()
	// The per-group bounds live on the stack for up to 16 groups.
	var stack [32]float64
	bounds := stack[:]
	if 2*k > len(bounds) {
		bounds = make([]float64, 2*k)
	}
	maxSupp, minSupp := bounds[:k:k], bounds[k:2*k]
	for g := 0; g < k; g++ {
		size := float64(sup.Size[g])
		if size == 0 {
			continue
		}
		// Eq. 7: a child cannot hold more of group g than it has rows,
		// nor more than the current space holds (support monotonicity).
		maxSupp[g] = float64(maxInstChild) / size
		if s := sup.Supp(g); s < maxSupp[g] {
			maxSupp[g] = s
		}
		// Eq. 8–10: if the child is full-size, at least
		// maxInstChild − (rows of other groups in the space) of its rows
		// are group g. The conservative mode drops this (a child may be
		// arbitrarily small, so its minimum support is 0).
		if mode == OEModePaper {
			other := spaceRows - sup.Count[g]
			minInst := maxInstChild - other
			if minInst > 0 {
				minSupp[g] = float64(minInst) / size
			}
		}
	}

	// Eq. 11: the best achievable difference over ordered group pairs.
	best := 0.0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			if d := maxSupp[i] - minSupp[j]; d > best {
				best = d
			}
		}
	}
	return best
}

// maxInstancesChild is Eq. 6: the largest number of rows a child space can
// hold after the next median split.
func maxInstancesChild(spaceRows, numCont int, mode OEMode) int {
	if mode == OEModeConservative || numCont < 1 {
		// A half-open (lo, med] / (med, hi] split can be arbitrarily
		// lopsided on tied data: with values {1,1,1,2} the low child holds
		// 3 of 4 rows, beating ceil(n/2) = 2. The only unconditional
		// guarantee is that a child is a *proper* sub-box of the space —
		// Algorithm 1 splits only when lo < med < hi, so each child
		// excludes at least one row. Hence the admissible bound is n − 1
		// (and n itself when the space cannot shrink further). Found by
		// the differential oracle: the previous ceil(n/2) bound let
		// ChiSquareOE prune children the reference miner kept.
		if spaceRows <= 1 {
			return spaceRows
		}
		return spaceRows - 1
	}
	// Paper mode: unique real values distribute evenly over the 2^|ca|
	// children.
	denom := 1 << uint(numCont)
	return (spaceRows + denom - 1) / denom
}
