package stats

// referenceChiSquareTable, referenceChiSquare2xK and
// referenceChiSquareOptimistic are the nested-slice chi-square tests,
// kept verbatim apart from their names as the differential reference
// FuzzChiSquare2xK holds the flat, stack-allocated tests to: a table of
// [][]float64 rows, fresh margin slices, and one 2×k table per extreme of
// the optimistic bound.

import (
	"errors"
	"math"
)

// referenceChiSquareTable computes the chi-square test of independence for an r×c
// contingency table given as rows of observed counts. All rows must have the
// same length. A zero row or column margin yields ErrDegenerateTable.
func referenceChiSquareTable(observed [][]float64) (ChiSquareResult, error) {
	r := len(observed)
	if r < 2 {
		return ChiSquareResult{}, ErrDegenerateTable
	}
	c := len(observed[0])
	if c < 2 {
		return ChiSquareResult{}, ErrDegenerateTable
	}
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	total := 0.0
	for i, row := range observed {
		if len(row) != c {
			return ChiSquareResult{}, errors.New("stats: ragged contingency table")
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return ChiSquareResult{}, errors.New("stats: negative or NaN count")
			}
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return ChiSquareResult{}, ErrDegenerateTable
	}
	for _, s := range rowSum {
		if s == 0 {
			return ChiSquareResult{}, ErrDegenerateTable
		}
	}
	for _, s := range colSum {
		if s == 0 {
			return ChiSquareResult{}, ErrDegenerateTable
		}
	}
	stat := 0.0
	minExp := math.Inf(1)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			exp := rowSum[i] * colSum[j] / total
			if exp < minExp {
				minExp = exp
			}
			d := observed[i][j] - exp
			stat += d * d / exp
		}
	}
	df := (r - 1) * (c - 1)
	return ChiSquareResult{
		Statistic:   stat,
		DF:          df,
		P:           ChiSquareSurvival(stat, df),
		MinExpected: minExp,
	}, nil
}

// referenceChiSquare2xK tests independence between group membership (2 groups) and
// presence/absence of a pattern across k groups is the common case in
// contrast set mining: the table rows are groups and the columns are
// (contains pattern, does not contain pattern).
//
// count[i] is the number of rows of group i containing the pattern and
// size[i] the total number of rows in group i.
func referenceChiSquare2xK(count, size []int) (ChiSquareResult, error) {
	if len(count) != len(size) || len(count) < 2 {
		return ChiSquareResult{}, errors.New("stats: count/size length mismatch")
	}
	obs := make([][]float64, len(count))
	for i := range count {
		if count[i] < 0 || count[i] > size[i] {
			return ChiSquareResult{}, errors.New("stats: count out of range")
		}
		obs[i] = []float64{float64(count[i]), float64(size[i] - count[i])}
	}
	return referenceChiSquareTable(obs)
}

// referenceChiSquareOptimistic returns an upper bound on the chi-square statistic
// achievable by any specialization of a pattern with the given per-group
// counts, following Bay & Pazzani's bound: a specialization can only shrink
// the per-group counts, and the statistic is maximized at the extreme where
// the counts become maximally skewed — all counts of one group retained and
// the others reduced to zero. The maximum over all such extremes is an
// admissible bound for pruning.
func referenceChiSquareOptimistic(count, size []int) float64 {
	best := 0.0
	k := len(count)
	sub := make([]int, k)
	for keep := 0; keep < k; keep++ {
		for i := range sub {
			if i == keep {
				sub[i] = count[i]
			} else {
				sub[i] = 0
			}
		}
		if sub[keep] == 0 {
			continue
		}
		res, err := referenceChiSquare2xK(sub, size)
		if err != nil {
			continue
		}
		if res.Statistic > best {
			best = res.Statistic
		}
	}
	return best
}
