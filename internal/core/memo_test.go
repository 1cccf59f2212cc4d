package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

// memoDataset builds a mixed dataset whose continuous columns are drawn
// from a small value grid (so duplicates are everywhere) and carry NaN
// cells. (Datasets reject infinite cells; ±Inf appears as range bounds.)
func memoDataset(rng *rand.Rand) *dataset.Dataset {
	n := 50 + rng.Intn(300)
	groups := 2 + rng.Intn(2)
	b := dataset.NewBuilder("memo")
	for a := 0; a < 3; a++ {
		col := make([]float64, n)
		for i := range col {
			if rng.Intn(15) == 0 {
				col[i] = math.NaN()
			} else {
				col[i] = float64(rng.Intn(12)) / 2
			}
		}
		b.AddContinuous(fmt.Sprintf("x%d", a), col)
	}
	for a := 0; a < 2; a++ {
		col := make([]string, n)
		for i := range col {
			col[i] = fmt.Sprintf("v%d", rng.Intn(2+a))
		}
		b.AddCategorical(fmt.Sprintf("c%d", a), col)
	}
	g := make([]string, n)
	for i := range g {
		g[i] = fmt.Sprintf("g%d", i%groups)
	}
	return b.SetGroups(g).MustBuild()
}

// randomBound draws a range bound: usually a value present in the column
// (the (lo,hi] edge case), sometimes ±Inf or an off-grid value.
func randomBound(rng *rand.Rand, col []float64) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Inf(-1)
	case 1:
		return math.Inf(1)
	case 2:
		return rng.Float64()*8 - 1
	}
	return col[rng.Intn(len(col))] // may itself be NaN
}

// randomItemset draws a non-empty mixed itemset over d: each attribute is
// included with probability 1/2; ranges may be empty or inverted.
func randomItemset(rng *rand.Rand, d *dataset.Dataset) pattern.Itemset {
	var items []pattern.Item
	for len(items) == 0 {
		for attr := 0; attr < d.NumAttrs(); attr++ {
			if rng.Intn(2) == 0 {
				continue
			}
			if d.Attr(attr).Kind == dataset.Categorical {
				items = append(items, pattern.CatItem(attr, rng.Intn(len(d.Domain(attr)))))
				continue
			}
			col := d.ContColumn(attr)
			lo, hi := randomBound(rng, col), randomBound(rng, col)
			if rng.Intn(4) != 0 && lo > hi {
				lo, hi = hi, lo // mostly proper ranges, some inverted
			}
			items = append(items, pattern.RangeItem(attr, lo, hi))
		}
	}
	return pattern.NewItemset(items...)
}

// TestSupportMemoEqualsRowScan pins the bitmap-backed memo to the row-scan
// reference (pattern.SupportsOf over the full view) on random mixed
// itemsets over 50 seeds: duplicate values, NaN cells, bounds equal to
// existing values, ±Inf bounds and empty ranges.
func TestSupportMemoEqualsRowScan(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := memoDataset(rng)
		memo := newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes())
		for i := 0; i < 60; i++ {
			set := randomItemset(rng, d)
			got := memo.supports(set)
			want := pattern.SupportsOf(set, d.All())
			if !reflect.DeepEqual(got.Count, want.Count) || !reflect.DeepEqual(got.Size, want.Size) {
				t.Fatalf("seed %d, %s: memo counts %v (sizes %v), row scan %v (sizes %v)",
					seed, set.Key(), got.Count, got.Size, want.Count, want.Size)
			}
		}
	}
}

// TestSupportMemoConcurrent shares one memo between two goroutines asking
// for the same itemsets (run it under -race): both must see the row-scan
// supports while the sorted columns are built lazily underneath them.
func TestSupportMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := memoDataset(rng)
	sets := make([]pattern.Itemset, 200)
	want := make([][]int, len(sets))
	for i := range sets {
		sets[i] = randomItemset(rng, d)
		want[i] = pattern.SupportsOf(sets[i], d.All()).Count
	}
	memo := newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes())
	var wg sync.WaitGroup
	errs := make(chan string, 2*len(sets))
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, set := range sets {
				if got := memo.supports(set).Count; !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("%s: memo counts %v, row scan %v", set.Key(), got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
