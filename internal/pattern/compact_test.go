package pattern

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sdadcs/internal/dataset"
)

// compactPool is the item pool the compact-key properties draw from: every
// encoding edge — signed zeros, infinities, subnormals, NaNs with
// different payloads and signs, attributes and codes that need multi-byte
// uvarints — on a handful of attributes, so random itemsets collide often.
func compactPool() []Item {
	bounds := []float64{
		0, math.Copysign(0, -1), math.Inf(-1), math.Inf(1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		1, 1.0 / 3, -2.5, math.MaxFloat64,
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Copysign(math.NaN(), -1),
	}
	var pool []Item
	for _, attr := range []int{0, 1, 127, 128, 300, 16384} {
		for _, code := range []int{0, 1, 127, 128, 255, 70000} {
			pool = append(pool, CatItem(attr, code))
		}
		for i, lo := range bounds {
			for _, hi := range bounds[i%3:] {
				pool = append(pool, RangeItem(attr, lo, hi))
			}
		}
		// Key ignores a range item's Code and a categorical item's Range;
		// so must the compact key.
		pool = append(pool,
			Item{Attr: attr, Kind: dataset.Continuous, Code: 9, Range: Interval{Lo: 0, Hi: 1}},
			Item{Attr: attr, Kind: dataset.Categorical, Code: 1, Range: Interval{Lo: 3, Hi: 4}})
	}
	return pool
}

// TestCompactKeyItemsPrefixFree: no item's encoding is a proper prefix of
// another's, and two items encode alike exactly when their Keys are equal.
func TestCompactKeyItemsPrefixFree(t *testing.T) {
	pool := compactPool()
	enc := make([][]byte, len(pool))
	keys := make([]string, len(pool))
	for i, it := range pool {
		enc[i], keys[i] = it.AppendCompactKey(nil), it.Key()
	}
	for i := range pool {
		for j := range pool {
			same := bytes.Equal(enc[i], enc[j])
			if same != (keys[i] == keys[j]) {
				t.Fatalf("%q vs %q: compact equal %v, Key equal %v", keys[i], keys[j], same, !same)
			}
			if !same && bytes.HasPrefix(enc[j], enc[i]) {
				t.Fatalf("encoding of %q is a prefix of %q's", keys[i], keys[j])
			}
		}
	}
}

// TestCompactKeyMatchesKey: over random itemsets, compact keys are equal
// exactly when Key strings are, and CompactKey is the appended form.
func TestCompactKeyMatchesKey(t *testing.T) {
	pool := compactPool()
	rng := rand.New(rand.NewSource(7))
	sets := make([]Itemset, 0, 600)
	for len(sets) < cap(sets) {
		var items []Item
		used := map[int]bool{}
		for k := rng.Intn(4); k > 0; k-- {
			it := pool[rng.Intn(len(pool))]
			if !used[it.Attr] {
				used[it.Attr] = true
				items = append(items, it)
			}
		}
		sets = append(sets, NewItemset(items...))
	}
	// Re-draw a few sets so equal itemsets built separately appear too.
	for i := 0; i < 100; i++ {
		sets = append(sets, NewItemset(sets[rng.Intn(len(sets))].Items()...))
	}
	pairsEqual := 0
	for i, a := range sets {
		ca := a.CompactKey()
		if got := string(a.AppendCompactKey([]byte("x"))); got != "x"+ca {
			t.Fatalf("AppendCompactKey does not append CompactKey for %q", a.Key())
		}
		for _, b := range sets[i+1:] {
			compactEq, keyEq := ca == b.CompactKey(), a.Key() == b.Key()
			if compactEq != keyEq {
				t.Fatalf("%q vs %q: compact equal %v, Key equal %v", a.Key(), b.Key(), compactEq, keyEq)
			}
			if keyEq {
				pairsEqual++
			}
		}
	}
	if pairsEqual == 0 {
		t.Fatal("no equal pairs drawn: the property was not exercised")
	}
}
