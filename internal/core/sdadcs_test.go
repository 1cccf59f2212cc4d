package core

import (
	"math"
	"testing"

	"sdadcs/internal/pattern"
)

func TestContiguousOn(t *testing.T) {
	cat := pattern.CatItem(5, 1)
	a := pattern.NewItemset(cat, pattern.RangeItem(0, 0, 1), pattern.RangeItem(1, 0, 2))
	b := pattern.NewItemset(cat, pattern.RangeItem(0, 1, 3), pattern.RangeItem(1, 0, 2))
	attr, u, ok := contiguousOn(a, b)
	if !ok || attr != 0 {
		t.Fatalf("contiguousOn = %d, %v", attr, ok)
	}
	if u.Lo != 0 || u.Hi != 3 {
		t.Errorf("union = %v", u)
	}

	// Differ on two attributes: not mergeable.
	c := pattern.NewItemset(cat, pattern.RangeItem(0, 1, 3), pattern.RangeItem(1, 2, 4))
	if _, _, ok := contiguousOn(a, c); ok {
		t.Error("two-attribute difference must not merge")
	}
	// Non-adjacent ranges: not mergeable.
	e := pattern.NewItemset(cat, pattern.RangeItem(0, 2, 4), pattern.RangeItem(1, 0, 2))
	if _, _, ok := contiguousOn(a, e); ok {
		t.Error("gap between ranges must not merge")
	}
	// Different categorical context: not mergeable.
	f := pattern.NewItemset(pattern.CatItem(5, 2), pattern.RangeItem(0, 1, 3), pattern.RangeItem(1, 0, 2))
	if _, _, ok := contiguousOn(a, f); ok {
		t.Error("different categorical item must not merge")
	}
	// Identical boxes: nothing to merge.
	if _, _, ok := contiguousOn(a, a); ok {
		t.Error("identical boxes must not merge")
	}
	// Different sizes.
	g := pattern.NewItemset(pattern.RangeItem(0, 1, 3))
	if _, _, ok := contiguousOn(a, g); ok {
		t.Error("different item counts must not merge")
	}
}

func TestSortByVolume(t *testing.T) {
	mk := func(lo, hi float64) pattern.Contrast {
		return pattern.Contrast{Set: pattern.NewItemset(pattern.RangeItem(0, lo, hi))}
	}
	var spaces []mergeSpace
	for _, c := range []pattern.Contrast{
		mk(0, 10),
		mk(0, 1),
		{Set: pattern.NewItemset(pattern.RangeItem(0, math.Inf(-1), 5))},
		mk(0, 3),
	} {
		spaces = append(spaces, newMergeSpace(c))
	}
	sortByVolume(spaces)
	vols := make([]float64, len(spaces))
	for i, s := range spaces {
		vols[i] = s.Set.Volume()
	}
	if vols[0] != 1 || vols[1] != 3 || vols[2] != 10 || !math.IsInf(vols[3], 1) {
		t.Errorf("volumes after sort = %v", vols)
	}
}

func TestMergeCombinesSimilarNeighbors(t *testing.T) {
	// Two adjacent boxes with near-identical group composition should
	// merge; a third, different box should survive on its own.
	sizes := []int{1000, 1000}
	run := &sdadRun{
		cfg:   &Config{Alpha: 0.05, Delta: 0.1, Measure: pattern.SupportDiff},
		alpha: 0.05,
		sizes: sizes,
	}
	run.cfg.defaults()
	mk := func(lo, hi float64, c0, c1 int) pattern.Contrast {
		sup := pattern.CountsToSupports([]int{c0, c1}, sizes)
		return pattern.Contrast{
			Set:      pattern.NewItemset(pattern.RangeItem(0, lo, hi)),
			Supports: sup,
			Score:    sup.MaxDiff(),
		}
	}
	d := []pattern.Contrast{
		mk(0, 1, 200, 20), // similar composition…
		mk(1, 2, 210, 22), // …adjacent: should merge with the first
		mk(5, 6, 30, 400), // inverted composition, not adjacent anyway
	}
	out := run.merge(d)
	if len(out) != 2 {
		for _, c := range out {
			t.Logf("box %v counts %v", c.Set.Key(), c.Supports.Count)
		}
		t.Fatalf("merged to %d boxes, want 2", len(out))
	}
	found := false
	for _, c := range out {
		if it, ok := c.Set.ItemOn(0); ok && it.Range.Lo == 0 && it.Range.Hi == 2 {
			found = true
			if c.Supports.Count[0] != 410 || c.Supports.Count[1] != 42 {
				t.Errorf("merged counts = %v", c.Supports.Count)
			}
		}
	}
	if !found {
		t.Error("union box (0,2] not present")
	}
	if run.stats.MergeOps != 1 {
		t.Errorf("MergeOps = %d, want 1", run.stats.MergeOps)
	}
}

func TestMergeKeepsDissimilarNeighbors(t *testing.T) {
	sizes := []int{1000, 1000}
	run := &sdadRun{
		cfg:   &Config{Alpha: 0.05, Delta: 0.1, Measure: pattern.SupportDiff},
		alpha: 0.05,
		sizes: sizes,
	}
	run.cfg.defaults()
	mk := func(lo, hi float64, c0, c1 int) pattern.Contrast {
		sup := pattern.CountsToSupports([]int{c0, c1}, sizes)
		return pattern.Contrast{
			Set:      pattern.NewItemset(pattern.RangeItem(0, lo, hi)),
			Supports: sup,
			Score:    sup.MaxDiff(),
		}
	}
	d := []pattern.Contrast{
		mk(0, 1, 300, 20), // strongly group 0
		mk(1, 2, 20, 300), // strongly group 1: adjacent but different
	}
	out := run.merge(d)
	if len(out) != 2 {
		t.Fatalf("dissimilar neighbors merged: %d boxes", len(out))
	}
}

func TestMergeDeduplicates(t *testing.T) {
	sizes := []int{100, 100}
	run := &sdadRun{
		cfg:   &Config{Alpha: 0.05, Delta: 0.1, Measure: pattern.SupportDiff},
		alpha: 0.05,
		sizes: sizes,
	}
	run.cfg.defaults()
	c := pattern.Contrast{
		Set:      pattern.NewItemset(pattern.RangeItem(0, 0, 1)),
		Supports: pattern.CountsToSupports([]int{50, 10}, sizes),
	}
	out := run.merge([]pattern.Contrast{c, c, c})
	if len(out) != 1 {
		t.Errorf("duplicates not removed: %d", len(out))
	}
}
