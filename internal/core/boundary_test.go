package core

import (
	"reflect"
	"testing"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

// TestExploreBoundaryRowsExcluded guards the (Lo, Hi] interval convention
// through SDAD-CS's single-pass space assignment: rows whose value ties
// exactly at a box's lower bound, or exceeds its upper bound, must land in
// no child space — exactly as re-counting the recorded RangeItems with
// pattern.SupportsOf (which uses Interval.Contains: Lo < v <= Hi) would
// exclude them. The regression: the assignment used to classify rows only
// relative to the split median, so a caller-supplied view containing
// out-of-box rows silently inflated child supports relative to their
// recorded itemsets.
func TestExploreBoundaryRowsExcluded(t *testing.T) {
	// Group "a": 60 values inside (10, 15]; group "b": 60 values inside
	// (15, 20], plus 30 rows tied exactly at the box's Lo (10.0) and 10
	// rows beyond its Hi (25.0). The box under exploration is (10, 20], but
	// the view handed to explore contains all 160 rows.
	var xs []float64
	var gs []string
	for i := 0; i < 60; i++ {
		xs = append(xs, 10.1+0.08*float64(i))
		gs = append(gs, "a")
	}
	for i := 0; i < 60; i++ {
		xs = append(xs, 15.1+0.08*float64(i))
		gs = append(gs, "b")
	}
	for i := 0; i < 30; i++ {
		xs = append(xs, 10.0) // tied at Lo: outside (10, 20]
		gs = append(gs, "b")
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, 25.0) // beyond Hi: outside (10, 20]
		gs = append(gs, "b")
	}
	d := dataset.NewBuilder("boundary").
		AddContinuous("x", xs).
		SetGroups(gs).
		MustBuild()

	cfg := Config{RecordExploredSpaces: true, Pruning: &Pruning{}}
	cfg.defaults()
	r := &sdadRun{
		d:         d,
		cfg:       &cfg,
		prune:     cfg.pruning(),
		contAttrs: []int{0},
		alpha:     cfg.Alpha,
		threshold: cfg.scoreFloor(),
		memo:      newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes()),
		scratch:   new(sdadScratch),
		table:     make(pruneTable),
		sizes:     d.GroupSizes(),
		totalRows: d.Rows(),
	}
	box := pattern.NewItemset(pattern.RangeItem(0, 10, 20))
	got := r.explore(d.All(), box, 1, 0)
	if len(got) == 0 {
		t.Fatal("explore found no contrasts; the fixture is broken")
	}
	for _, c := range got {
		want := pattern.SupportsOf(c.Set, d.All())
		if !reflect.DeepEqual(c.Supports.Count, want.Count) {
			t.Errorf("%s: recorded counts %v, re-counting the itemset gives %v",
				c.Set.Key(), c.Supports.Count, want.Count)
		}
	}
}
