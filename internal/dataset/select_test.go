package dataset

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortQuantile is the sort-based reference QuantileInPlace replaces: sort a
// copy of the non-NaN values and index it at int(q·(m−1)).
func sortQuantile(vals []float64, q float64) float64 {
	var finite []float64
	for _, x := range vals {
		if !math.IsNaN(x) {
			finite = append(finite, x)
		}
	}
	if len(finite) == 0 {
		return 0
	}
	sort.Float64s(finite)
	if q <= 0 {
		return finite[0]
	}
	if q >= 1 {
		return finite[len(finite)-1]
	}
	return finite[int(q*float64(len(finite)-1))]
}

// selectionInputs returns the adversarial shapes the selection property
// runs over, at the given length: ties, constant columns, NaN-laden and
// all-NaN inputs, ±Inf, and sorted, reversed and organ-pipe orders.
func selectionInputs(rng *rand.Rand, n int) map[string][]float64 {
	in := map[string][]float64{}
	gen := func(name string, f func(i int) float64) {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		in[name] = v
	}
	gen("random", func(int) float64 { return rng.NormFloat64() })
	gen("ties", func(int) float64 { return float64(rng.Intn(3)) })
	gen("constant", func(int) float64 { return 4.5 })
	gen("sorted", func(i int) float64 { return float64(i) })
	gen("reversed", func(i int) float64 { return float64(n - i) })
	gen("organ-pipe", func(i int) float64 { return float64(min(i, n-1-i)) })
	gen("sorted-ties", func(i int) float64 { return float64(i / 3) })
	gen("nan-laden", func(int) float64 {
		if rng.Intn(3) == 0 {
			return math.NaN()
		}
		return float64(rng.Intn(5))
	})
	gen("all-nan", func(int) float64 { return math.NaN() })
	gen("inf", func(int) float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.NaN()
		}
		return rng.Float64()
	})
	return in
}

// TestQuantileInPlaceEqualsSort pins the selection helper to the sort-based
// reference at every quantile index, on every adversarial shape, at n = 1
// and 2, odd and even lengths, and lengths long enough to leave the
// insertion-sort base case.
func TestQuantileInPlaceEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []float64{-0.5, 0, 0.1, 0.25, 0.5, 0.75, 0.9, 1, 1.5}
	for _, n := range []int{1, 2, 3, 4, 5, 16, 17, 31, 64, 101, 1000, 1001} {
		for name, vals := range selectionInputs(rng, n) {
			for _, q := range qs {
				want := sortQuantile(vals, q)
				work := append([]float64(nil), vals...)
				got := QuantileInPlace(work, q)
				if got != want {
					t.Errorf("%s n=%d q=%v: selected %v, sorting gives %v", name, n, q, got, want)
				}
			}
			// Order statistics straight from the selection kernel: every
			// index on short inputs, a sample on long ones.
			var finite []float64
			for _, x := range vals {
				if !math.IsNaN(x) {
					finite = append(finite, x)
				}
			}
			sorted := append([]float64(nil), finite...)
			sort.Float64s(sorted)
			for k := range finite {
				if len(finite) > 101 && k%97 != 0 && k != len(finite)-1 {
					continue
				}
				work := append([]float64(nil), finite...)
				if got := selectKth(work, k); got != sorted[k] {
					t.Fatalf("%s n=%d: selectKth(%d) = %v, want %v", name, n, k, got, sorted[k])
				}
				sort.Float64s(work)
				for i := range work {
					if work[i] != sorted[i] {
						t.Fatalf("%s n=%d k=%d: selection lost or duplicated a value", name, n, k)
					}
				}
			}
		}
	}
}

// TestQuantileInPlaceEmpty: an empty or all-NaN input has no quantile.
func TestQuantileInPlaceEmpty(t *testing.T) {
	if got := QuantileInPlace(nil, 0.5); got != 0 {
		t.Errorf("empty input: %v, want 0", got)
	}
	if got := QuantileInPlace([]float64{math.NaN(), math.NaN()}, 0.5); got != 0 {
		t.Errorf("all-NaN input: %v, want 0", got)
	}
}

// TestQuantileInPlaceZeroIsPositive: a zero quantile is +0 whichever of
// −0 and +0 the selection lands on, so the printed cut does not depend on
// the order of the values.
func TestQuantileInPlaceZeroIsPositive(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, vals := range [][]float64{
		{negZero, 0, negZero},
		{0, negZero, 0},
		{negZero, negZero, 1},
		{-1, negZero, 0, 1},
	} {
		work := append([]float64(nil), vals...)
		if got := QuantileInPlace(work, 0.5); got != 0 || math.Signbit(got) {
			t.Errorf("median of %v = %v (signbit %v), want +0", vals, got, math.Signbit(got))
		}
	}
}

// TestViewQuantileEqualsSort pins View.Quantile, which delegates to the
// selection helper, to the sort-based reference on full and restricted
// views of a NaN-laden, tie-heavy column.
func TestViewQuantileEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 301
	x := make([]float64, n)
	g := make([]string, n)
	for i := range x {
		x[i] = float64(rng.Intn(40)) / 4
		if rng.Intn(7) == 0 {
			x[i] = math.NaN()
		}
		g[i] = []string{"a", "b"}[i%2]
	}
	d := NewBuilder("q").AddContinuous("x", x).SetGroups(g).MustBuild()
	var rows []int
	for i := 0; i < n; i += 3 {
		rows = append(rows, i)
	}
	views := map[string]View{"all": d.All(), "restricted": d.Restrict(rows)}
	for name, v := range views {
		vals := make([]float64, v.Len())
		for i := range vals {
			vals[i] = d.Cont(0, v.Row(i))
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
			if got, want := v.Quantile(0, q), sortQuantile(vals, q); got != want {
				t.Errorf("%s view q=%v: Quantile = %v, sorting gives %v", name, q, got, want)
			}
		}
		if got, want := v.Median(0), sortQuantile(vals, 0.5); got != want {
			t.Errorf("%s view: Median = %v, sorting gives %v", name, got, want)
		}
	}
}
