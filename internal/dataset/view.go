package dataset

import (
	"math"
	"math/rand"
	"sort"
)

// View is a subset of a dataset's rows. The spaces SDAD-CS explores are
// views, so recursive exploration shares column storage. The full-dataset
// view is flagged explicitly so that an *empty* filter result (a nil row
// slice) is never confused with "all rows".
type View struct {
	ds   *Dataset
	rows []int
	all  bool
}

// Dataset returns the underlying dataset.
func (v View) Dataset() *Dataset { return v.ds }

// Len returns the number of rows in the view.
func (v View) Len() int {
	if v.all {
		return v.ds.rows
	}
	return len(v.rows)
}

// Whole reports whether the view is every row of its dataset, in row
// order, as All returns it. A Restrict view is never whole, even when it
// lists every row.
func (v View) Whole() bool { return v.all }

// Row returns the dataset row index of the i-th view row.
func (v View) Row(i int) int {
	if v.all {
		return i
	}
	return v.rows[i]
}

// Rows materializes the view's dataset row indices.
func (v View) Rows() []int {
	if !v.all {
		return v.rows
	}
	all := make([]int, v.ds.rows)
	for i := range all {
		all[i] = i
	}
	return all
}

// GroupCounts returns, per group, the number of view rows in that group.
func (v View) GroupCounts() []int {
	counts := make([]int, v.ds.NumGroups())
	n := v.Len()
	for i := 0; i < n; i++ {
		counts[v.ds.groups[v.Row(i)]]++
	}
	return counts
}

// Filter returns a view of the rows satisfying pred (given dataset row
// indices).
func (v View) Filter(pred func(row int) bool) View {
	var keep []int
	n := v.Len()
	for i := 0; i < n; i++ {
		r := v.Row(i)
		if pred(r) {
			keep = append(keep, r)
		}
	}
	return View{ds: v.ds, rows: keep}
}

// FilterCat returns the view rows where categorical attribute attr has the
// given domain code.
func (v View) FilterCat(attr, code int) View {
	a := v.ds.attrs[attr]
	col := v.ds.catCols[a.col]
	return v.Filter(func(row int) bool { return col[row] == code })
}

// FilterRange returns the view rows where continuous attribute attr lies in
// (lo, hi] — the half-open interval convention the paper's contrasts use
// ("l < a <= r"). Use math.Inf for unbounded ends.
func (v View) FilterRange(attr int, lo, hi float64) View {
	a := v.ds.attrs[attr]
	col := v.ds.contCols[a.col]
	return v.Filter(func(row int) bool {
		x := col[row]
		return x > lo && x <= hi
	})
}

// Median returns the median of a continuous attribute over the view, using
// the lower-middle element for even counts so that a split at the median
// puts at least one row on each side whenever two distinct values exist.
func (v View) Median(attr int) float64 {
	return v.Quantile(attr, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of a continuous attribute
// over the view: the lower element at index int(q·(n−1)) of the n finite
// values in ascending order, so that the median of an even-length sample is
// the lower-middle value — a split at (−inf, median] then keeps at most
// ceil(n/2) rows on the left, the invariant the optimistic estimate relies
// on. Missing (NaN) readings are skipped; with none left it returns 0.
func (v View) Quantile(attr int, q float64) float64 {
	a := v.ds.attrs[attr]
	col := v.ds.contCols[a.col]
	n := v.Len()
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = col[v.Row(i)]
	}
	return QuantileInPlace(vals, q)
}

// MinMax returns the smallest and largest finite value of a continuous
// attribute over the view, skipping missing (NaN) readings. It returns
// (0, 0) when the view has no finite values.
func (v View) MinMax(attr int) (lo, hi float64) {
	n := v.Len()
	a := v.ds.attrs[attr]
	col := v.ds.contCols[a.col]
	seen := false
	for i := 0; i < n; i++ {
		x := col[v.Row(i)]
		if x != x { // NaN
			continue
		}
		if !seen {
			lo, hi = x, x
			seen = true
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if !seen {
		return 0, 0
	}
	return lo, hi
}

// StratifiedSplit partitions the view's rows into two views, keeping each
// group's proportion: every group contributes ⌈frac·n_g⌉ rows to the first
// view. The split is deterministic for a given seed. It backs holdout
// validation of mined patterns.
func (v View) StratifiedSplit(frac float64, seed int64) (first, second View) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	rng := rand.New(rand.NewSource(seed))
	byGroup := make([][]int, v.ds.NumGroups())
	n := v.Len()
	for i := 0; i < n; i++ {
		r := v.Row(i)
		g := v.ds.Group(r)
		byGroup[g] = append(byGroup[g], r)
	}
	var a, b []int
	for _, rows := range byGroup {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		cut := int(math.Ceil(frac * float64(len(rows))))
		a = append(a, rows[:cut]...)
		b = append(b, rows[cut:]...)
	}
	sort.Ints(a)
	sort.Ints(b)
	return View{ds: v.ds, rows: a}, View{ds: v.ds, rows: b}
}

// Intersect returns the view containing rows present in both views. Both
// views must be over the same dataset; results are in v's order.
func (v View) Intersect(w View) View {
	inW := make(map[int]struct{}, w.Len())
	for i := 0; i < w.Len(); i++ {
		inW[w.Row(i)] = struct{}{}
	}
	return v.Filter(func(row int) bool {
		_, ok := inW[row]
		return ok
	})
}
