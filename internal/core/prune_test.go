package core

import (
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
	table[pattern.NewItemset(a).Key()] = struct{}{}

	if !table.hasPrunedSubset(pattern.NewItemset(a, b)) {
		t.Error("superset of a pruned itemset must be pruned")
	}
	if !table.hasPrunedSubset(pattern.NewItemset(a, b, c)) {
		t.Error("3-item superset must be pruned")
	}
	if table.hasPrunedSubset(pattern.NewItemset(b, c)) {
		t.Error("unrelated itemset must not be pruned")
	}
	// Range keys are exact: a different range on the same attribute is a
	// different item.
	if table.hasPrunedSubset(pattern.NewItemset(pattern.CatItem(0, 2), b)) {
		t.Error("different value on same attribute must not match")
	}
	if table.hasPrunedSubset(pattern.NewItemset()) {
		t.Error("empty itemset must not be pruned")
	}
	if (pruneTable{}).hasPrunedSubset(pattern.NewItemset(a)) {
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
	memo := newSupportMemo(d, bitmap.NewIndex(d))
	set := pattern.NewItemset(pattern.RangeItem(0, 0, 10))
	sup := pattern.SupportsOf(set, d.All()) // ~5% support in A only
	dec := evaluatePruning(AllPruning(), set, sup, 0.1, 0.05, chiSquareCrit(0.05, 2), d.Rows(), memo.supports, nil, nil, 1, 0)
	if !dec.skipChildren || !dec.skipContrast || !dec.record {
		t.Errorf("low-support space should fully prune: %+v", dec)
	}
}

func TestEvaluatePruningPureSpace(t *testing.T) {
	d := prunableDataset(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d))
	set := pattern.NewItemset(pattern.RangeItem(0, -1, 150))
	sup := pattern.SupportsOf(set, d.All()) // 150 A rows, 0 B rows: pure
	if sup.PR() != 1 {
		t.Fatalf("setup: PR = %v", sup.PR())
	}
	dec := evaluatePruning(AllPruning(), set, sup, 0.1, 0.05, chiSquareCrit(0.05, 2), d.Rows(), memo.supports, nil, nil, 1, 0)
	if !dec.skipChildren {
		t.Error("pure space must not be extended")
	}
	if dec.skipContrast {
		t.Error("pure space is still a valid contrast itself")
	}
	if !dec.record {
		t.Error("pure space must be recorded in the lookup table")
	}
}

func TestEvaluatePruningDisabled(t *testing.T) {
	d := prunableDataset(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d))
	set := pattern.NewItemset(pattern.RangeItem(0, 0, 10))
	sup := pattern.SupportsOf(set, d.All())
	dec := evaluatePruning(Pruning{}, set, sup, 0.1, 0.05, chiSquareCrit(0.05, 2), d.Rows(), memo.supports, nil, nil, 1, 0)
	if dec.skipChildren || dec.skipContrast || dec.record {
		t.Errorf("disabled pruning should pass everything: %+v", dec)
	}
}

func TestRedundantByCLTDetectsSubsumption(t *testing.T) {
	// pregnant ⊂ female: {female, pregnant} has identical supports to
	// {pregnant}, hence identical diff — within any CLT bound.
	d := femalePregnant(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d))
	set := pattern.NewItemset(item(d, "sex", "female"), item(d, "pregnant", "yes"))
	sup := memo.supports(set)
	det, redundant := redundantByCLT(set, sup, 0.05, memo.supports)
	if !redundant {
		t.Error("functionally dependent itemset should be CLT-redundant")
	}
	if det.subsetKey == "" {
		t.Error("redundancy detail must name the subsuming subset")
	}
}

func TestRedundantByCLTKeepsRealRefinement(t *testing.T) {
	// A genuine refinement: restricting the range sharply changes the
	// difference relative to both one-item subsets.
	d := datagen2x(t)
	memo := newSupportMemo(d, bitmap.NewIndex(d))
	set := pattern.NewItemset(
		pattern.RangeItem(0, -1, 0.5),
		pattern.RangeItem(1, -1, 0.5),
	)
	sup := memo.supports(set)
	if _, redundant := redundantByCLT(set, sup, 0.05, memo.supports); redundant {
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
	memo := newSupportMemo(d, bitmap.NewIndex(d))
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
