package core

import (
	"math"
	"math/rand"
	"testing"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

func TestPruneTableSubsetLookup(t *testing.T) {
	table := make(pruneTable)
	a := pattern.CatItem(0, 1)
	b := pattern.RangeItem(2, 0, 5)
	c := pattern.CatItem(4, 0)
	table.insert(pattern.NewItemset(a))
	pruned := func(s pattern.Itemset) bool {
		_, ok := table.prunedSubset(s)
		return ok
	}

	if !pruned(pattern.NewItemset(a, b)) {
		t.Error("superset of a pruned itemset must be pruned")
	}
	if mask, ok := table.prunedSubset(pattern.NewItemset(a, b, c)); !ok {
		t.Error("3-item superset must be pruned")
	} else if got, want := subsetKey(pattern.NewItemset(a, b, c), mask), pattern.NewItemset(a).Key(); got != want {
		t.Errorf("provenance subset = %q, want %q", got, want)
	}
	if pruned(pattern.NewItemset(b, c)) {
		t.Error("unrelated itemset must not be pruned")
	}
	// Range keys are exact: a different range on the same attribute is a
	// different item.
	if pruned(pattern.NewItemset(pattern.CatItem(0, 2), b)) {
		t.Error("different value on same attribute must not match")
	}
	if pruned(pattern.NewItemset()) {
		t.Error("empty itemset must not be pruned")
	}
	if _, ok := (pruneTable{}).prunedSubset(pattern.NewItemset(a)); ok {
		t.Error("empty table must not prune")
	}
}

func prunableDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	n := 400
	x := make([]float64, n)
	g := make([]string, n)
	for i := range x {
		x[i] = float64(i)
		if i < 200 {
			g[i] = "A"
		} else {
			g[i] = "B"
		}
	}
	return dataset.NewBuilder("p").AddContinuous("x", x).SetGroups(g).MustBuild()
}

func TestEvaluatePruningMinDeviation(t *testing.T) {
	d := prunableDataset(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes())
	set := pattern.NewItemset(pattern.RangeItem(0, 0, 10))
	sup := pattern.SupportsOf(set, d.All()) // ~5% support in A only
	dec := evaluatePruning(AllPruning(), set, sup, 0.1, 0.05, chiSquareCrit(0.05, 2), d.Rows(), memo, nil, nil, 1, 0)
	if !dec.SkipChildren || !dec.SkipContrast || !dec.Record {
		t.Errorf("low-support space should fully prune: %+v", dec)
	}
}

func TestEvaluatePruningPureSpace(t *testing.T) {
	d := prunableDataset(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes())
	set := pattern.NewItemset(pattern.RangeItem(0, -1, 150))
	sup := pattern.SupportsOf(set, d.All()) // 150 A rows, 0 B rows: pure
	if sup.PR() != 1 {
		t.Fatalf("setup: PR = %v", sup.PR())
	}
	dec := evaluatePruning(AllPruning(), set, sup, 0.1, 0.05, chiSquareCrit(0.05, 2), d.Rows(), memo, nil, nil, 1, 0)
	if !dec.SkipChildren {
		t.Error("pure space must not be extended")
	}
	if dec.SkipContrast {
		t.Error("pure space is still a valid contrast itself")
	}
	if !dec.Record {
		t.Error("pure space must be recorded in the lookup table")
	}
}

func TestEvaluatePruningDisabled(t *testing.T) {
	d := prunableDataset(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes())
	set := pattern.NewItemset(pattern.RangeItem(0, 0, 10))
	sup := pattern.SupportsOf(set, d.All())
	dec := evaluatePruning(Pruning{}, set, sup, 0.1, 0.05, chiSquareCrit(0.05, 2), d.Rows(), memo, nil, nil, 1, 0)
	if dec.SkipChildren || dec.SkipContrast || dec.Record {
		t.Errorf("disabled pruning should pass everything: %+v", dec)
	}
}

func TestRedundantByCLTDetectsSubsumption(t *testing.T) {
	// pregnant ⊂ female: {female, pregnant} has identical supports to
	// {pregnant}, hence identical diff — within any CLT bound.
	d := femalePregnant(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes())
	set := pattern.NewItemset(item(d, "sex", "female"), item(d, "pregnant", "yes"))
	sup := memo.supports(set)
	det, redundant := redundantByCLT(set, sup, 0.05, memo)
	if !redundant {
		t.Error("functionally dependent itemset should be CLT-redundant")
	}
	if det.subset.Len() == 0 {
		t.Error("redundancy detail must name the subsuming subset")
	}
}

func TestRedundantByCLTKeepsRealRefinement(t *testing.T) {
	// A genuine refinement: restricting the range sharply changes the
	// difference relative to both one-item subsets.
	d := datagen2x(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes())
	set := pattern.NewItemset(
		pattern.RangeItem(0, -1, 0.5),
		pattern.RangeItem(1, -1, 0.5),
	)
	sup := memo.supports(set)
	if _, redundant := redundantByCLT(set, sup, 0.05, memo); redundant {
		t.Error("an interacting refinement should not be flagged redundant")
	}
}

// datagen2x builds a small XOR dataset inline (avoiding an import cycle on
// the datagen test helpers).
func datagen2x(t *testing.T) *dataset.Dataset {
	t.Helper()
	n := 2000
	x := make([]float64, n)
	y := make([]float64, n)
	g := make([]string, n)
	// A 50×40 uniform grid so both attributes span (0, 1) independently.
	for i := range x {
		x[i] = float64(i%50) / 50
		y[i] = float64((i/50)%40) / 40
		if (x[i] < 0.5) == (y[i] < 0.5) {
			g[i] = "G1"
		} else {
			g[i] = "G2"
		}
	}
	return dataset.NewBuilder("xor").
		AddContinuous("x", x).
		AddContinuous("y", y).
		SetGroups(g).
		MustBuild()
}

func TestSupportMemoCaches(t *testing.T) {
	d := prunableDataset(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes())
	set := pattern.NewItemset(pattern.RangeItem(0, 0, 100))
	a := memo.supports(set)
	b := memo.supports(set)
	for g := range a.Count {
		if a.Count[g] != b.Count[g] {
			t.Error("memo returned inconsistent supports")
		}
	}
	if len(memo.cache) != 1 {
		t.Errorf("cache size = %d, want 1", len(memo.cache))
	}
}

// TestPruneTableMatchesKeyTable checks the compact-key lookup table
// against a naive table of Key strings on random tables and itemsets: the
// same spaces are cut, by the same first subset in mask order.
func TestPruneTableMatchesKeyTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := []float64{math.Inf(-1), math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1)}
	randomItem := func(attr int) pattern.Item {
		if attr%2 == 0 {
			return pattern.CatItem(attr, rng.Intn(3))
		}
		i := rng.Intn(len(bounds) - 1)
		return pattern.RangeItem(attr, bounds[i], bounds[i+1+rng.Intn(len(bounds)-1-i)])
	}
	attrs := []int{0, 1, 2, 3, 128, 129}
	randomSet := func(maxLen int) pattern.Itemset {
		var items []pattern.Item
		for _, i := range rng.Perm(len(attrs))[:rng.Intn(maxLen+1)] {
			items = append(items, randomItem(attrs[i]))
		}
		return pattern.NewItemset(items...)
	}
	hits, candidates := 0, 0
	for trial := 0; trial < 200; trial++ {
		table, naive := make(pruneTable), map[string]bool{}
		for k := rng.Intn(12); k > 0; k-- {
			s := randomSet(3)
			if s.Len() > 0 {
				table.insert(s)
				naive[s.Key()] = true
			}
		}
		for q := 0; q < 50; q++ {
			set := randomSet(len(attrs))
			wantKey, want := "", false
			for mask := 1; mask < 1<<uint(set.Len()) && !want; mask++ {
				var sub []pattern.Item
				for i := 0; i < set.Len(); i++ {
					if mask&(1<<uint(i)) != 0 {
						sub = append(sub, set.Item(i))
					}
				}
				wantKey = pattern.NewItemset(sub...).Key()
				want = naive[wantKey]
			}
			mask, got := table.prunedSubset(set)
			if got != want {
				t.Fatalf("trial %d: %q: compact table hit %v, Key table hit %v", trial, set.Key(), got, want)
			}
			// Probed as a candidate, its prefix plus its last item, as
			// generation does when no subset of the prefix and not set
			// itself is recorded, set is cut by the same first subset.
			if n := set.Len(); n > 0 && !naive[set.Key()] {
				last := set.Item(n - 1)
				prefix := set.Without(last.Attr)
				if _, cut := table.prunedSubset(prefix); !cut {
					candidates++
					if cmask, chit := table.prunedSubset(prefix, last); chit != got || cmask != mask {
						t.Fatalf("trial %d: %q as a candidate: hit %v by mask %b, full probe hit %v by mask %b",
							trial, set.Key(), chit, cmask, got, mask)
					}
				}
			}
			if got {
				hits++
				if key := subsetKey(set, mask); key != wantKey {
					t.Fatalf("trial %d: %q: cut by %q, Key table cuts by %q", trial, set.Key(), key, wantKey)
				}
			}
		}
	}
	if hits == 0 || candidates == 0 {
		t.Fatalf("%d lookup hits and %d candidate probes drawn: the property was not exercised", hits, candidates)
	}
}
