package stats

import (
	"errors"
	"math"
)

// ErrDegenerateTable reports a contingency table whose chi-square statistic
// is undefined (a zero row or column margin).
var ErrDegenerateTable = errors.New("stats: degenerate contingency table")

// ChiSquareResult holds the outcome of a chi-square independence test.
type ChiSquareResult struct {
	Statistic   float64 // the chi-square statistic
	DF          int     // degrees of freedom
	P           float64 // upper-tail p-value
	MinExpected float64 // smallest expected cell count (validity check)
}

// Significant reports whether the test rejects independence at level alpha.
func (r ChiSquareResult) Significant(alpha float64) bool {
	return r.P < alpha
}

// Errors of malformed inputs. They are values, so a rejected table costs
// no allocation on a hot path.
var (
	errRaggedTable   = errors.New("stats: ragged contingency table")
	errBadCount      = errors.New("stats: negative or NaN count")
	errLengths       = errors.New("stats: count/size length mismatch")
	errCountOutRange = errors.New("stats: count out of range")
)

// stackCells is how many table cells, and separately how many margins,
// the tests keep in stack arrays; a larger table falls back to the heap.
const stackCells = 64

// ChiSquareTable computes the chi-square test of independence for an r×c
// contingency table given as rows of observed counts. All rows must have the
// same length. A zero row or column margin yields ErrDegenerateTable.
func ChiSquareTable(observed [][]float64) (ChiSquareResult, error) {
	r := len(observed)
	if r < 2 {
		return ChiSquareResult{}, ErrDegenerateTable
	}
	c := len(observed[0])
	if c < 2 {
		return ChiSquareResult{}, ErrDegenerateTable
	}
	var stack [stackCells]float64
	cells := stack[:]
	if r*c > len(cells) {
		cells = make([]float64, r*c)
	}
	cells = cells[:0]
	for _, row := range observed {
		if len(row) != c {
			return ChiSquareResult{}, errRaggedTable
		}
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				return ChiSquareResult{}, errBadCount
			}
		}
		cells = append(cells, row...)
	}
	return chiSquareFlat(cells, r, c)
}

// chiSquareFlat is the test on a validated r×c table of non-negative,
// non-NaN counts stored row-major in obs. The margins are summed and the
// statistic accumulated cell by cell in row-major order, the order the
// nested-slice code used, so the results keep their bits.
func chiSquareFlat(obs []float64, r, c int) (ChiSquareResult, error) {
	var stack [stackCells]float64
	sums := stack[:]
	if r+c > len(sums) {
		sums = make([]float64, r+c)
	}
	rowSum, colSum := sums[:r], sums[r:r+c]
	total := 0.0
	for i := 0; i < r; i++ {
		row := obs[i*c : i*c+c]
		for j, v := range row {
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
		row := obs[i*c : i*c+c]
		for j, o := range row {
			exp := rowSum[i] * colSum[j] / total
			if exp < minExp {
				minExp = exp
			}
			d := o - exp
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

// ChiSquare2xK tests independence between group membership and the
// presence of a pattern, the common case in contrast set mining: the
// table has one row per group (k groups, k >= 2) and two columns
// (contains the pattern, does not contain it).
//
// count[i] is the number of rows of group i containing the pattern and
// size[i] the total number of rows in group i. The table lives on the
// stack for up to 32 groups, so the test does not allocate.
func ChiSquare2xK(count, size []int) (ChiSquareResult, error) {
	k := len(count)
	if len(size) != k || k < 2 {
		return ChiSquareResult{}, errLengths
	}
	var stack [stackCells]float64
	obs := stack[:]
	if 2*k > len(obs) {
		obs = make([]float64, 2*k)
	}
	for i, n := range count {
		if n < 0 || n > size[i] {
			return ChiSquareResult{}, errCountOutRange
		}
		obs[2*i] = float64(n)
		obs[2*i+1] = float64(size[i] - n)
	}
	return chiSquareFlat(obs[:2*k], k, 2)
}

// ChiSquareOptimistic returns an upper bound on the chi-square statistic
// achievable by any specialization of a pattern with the given per-group
// counts, following Bay & Pazzani's bound: a specialization can only shrink
// the per-group counts, and the statistic is maximized at the extreme where
// the counts become maximally skewed — all counts of one group retained and
// the others reduced to zero. The maximum over all such extremes is an
// admissible bound for pruning.
func ChiSquareOptimistic(count, size []int) float64 {
	best := 0.0
	k := len(count)
	var stack [stackCells]int
	sub := stack[:]
	if k > len(sub) {
		sub = make([]int, k)
	}
	sub = sub[:k]
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
		res, err := ChiSquare2xK(sub, size)
		if err != nil {
			continue
		}
		if res.Statistic > best {
			best = res.Statistic
		}
	}
	return best
}
