package dataset

import (
	"math/bits"
	"sort"
)

// QuantileInPlace returns the q-quantile (0 <= q <= 1) of the non-NaN
// values in vals, by the rule of QuantileSorted. It returns 0 when vals
// holds no non-NaN value.
//
// vals is reordered in place: NaN values are compacted away and the rest
// partially ordered by quickselect, so one call costs expected O(len(vals))
// instead of a sort.
func QuantileInPlace(vals []float64, q float64) float64 {
	finite := vals[:0]
	for _, x := range vals {
		if x == x { // skip NaN
			finite = append(finite, x)
		}
	}
	return QuantileSorted(len(finite), q, func(k int) float64 { return selectKth(finite, k) })
}

// QuantileSorted is the one order-statistic rule of the package: the
// q-quantile (0 <= q <= 1) of m non-NaN values is the element at index
// int(q·(m−1)) of their ascending order, so that the median of an
// even-length sample is the lower-middle value; q <= 0 gives the minimum
// and q >= 1 the maximum. at(k) must return the element an ascending sort
// of the values would put at index k; it is called once, and not at all
// when m is 0, which gives 0. A zero is always returned as +0: −0 and +0
// compare equal, so which of them an ascending order puts at the index
// would otherwise depend on the order the values came in.
func QuantileSorted(m int, q float64, at func(k int) float64) float64 {
	if m == 0 {
		return 0
	}
	k := 0
	switch {
	case q >= 1:
		k = m - 1
	case q > 0:
		k = int(q * float64(m-1))
	}
	if v := at(k); v != 0 {
		return v
	}
	return 0
}

// selectKth reorders a (NaN-free) so that a[k] holds the element an
// ascending sort would put there, and returns it. It is an introselect:
// median-of-three quickselect with a three-way partition, so ties and
// constant runs shrink the range at once, falling back to sorting the
// remaining range when the partition budget runs out, which bounds the
// worst case at O(n log n).
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a) // the k-th element lies in a[lo:hi]
	budget := 2 * bits.Len(uint(len(a)))
	for hi-lo > 16 {
		if budget == 0 {
			sort.Float64s(a[lo:hi])
			return a[k]
		}
		budget--
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// Dijkstra partition: a[lo:lt] < p, a[lt:gt] == p, a[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := a[i]; {
			case x < p:
				a[lt], a[i] = x, a[lt]
				lt++
				i++
			case x > p:
				gt--
				a[i], a[gt] = a[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return a[k]
		}
	}
	// Insertion sort the short remainder.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	return a[k]
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}
