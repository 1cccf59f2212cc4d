package dataset

import (
	"strings"
	"testing"
)

// sample builds a small mixed dataset used across the package tests.
func sample(t *testing.T) *Dataset {
	t.Helper()
	d, err := NewBuilder("sample").
		AddContinuous("age", []float64{25, 35, 45, 55, 65, 30}).
		AddCategorical("color", []string{"red", "blue", "red", "green", "blue", "red"}).
		AddContinuous("hours", []float64{40, 50, 60, 20, 45, 38}).
		SetGroups([]string{"A", "B", "A", "B", "A", "B"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDatasetBasics(t *testing.T) {
	d := sample(t)
	if d.Name() != "sample" {
		t.Errorf("Name = %q", d.Name())
	}
	if d.Rows() != 6 {
		t.Errorf("Rows = %d", d.Rows())
	}
	if d.NumAttrs() != 3 {
		t.Errorf("NumAttrs = %d", d.NumAttrs())
	}
	if d.NumGroups() != 2 {
		t.Errorf("NumGroups = %d", d.NumGroups())
	}
	if d.GroupName(0) != "A" || d.GroupName(1) != "B" {
		t.Errorf("group names = %q, %q", d.GroupName(0), d.GroupName(1))
	}
	if d.GroupIndex("B") != 1 || d.GroupIndex("missing") != -1 {
		t.Error("GroupIndex lookup failed")
	}
	sizes := d.GroupSizes()
	if sizes[0] != 3 || sizes[1] != 3 {
		t.Errorf("GroupSizes = %v", sizes)
	}
	if d.AttrIndex("hours") != 2 || d.AttrIndex("nope") != -1 {
		t.Error("AttrIndex lookup failed")
	}
	if got := d.ContinuousAttrs(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ContinuousAttrs = %v", got)
	}
	if got := d.CategoricalAttrs(); len(got) != 1 || got[0] != 1 {
		t.Errorf("CategoricalAttrs = %v", got)
	}
	if d.Cont(0, 2) != 45 {
		t.Errorf("Cont(0,2) = %v", d.Cont(0, 2))
	}
	if d.CatValue(1, 3) != "green" {
		t.Errorf("CatValue(1,3) = %q", d.CatValue(1, 3))
	}
	if got := d.Domain(1); len(got) != 3 || got[0] != "red" {
		t.Errorf("Domain = %v", got)
	}
	if d.CatCode(1, 0) != 0 || d.CatCode(1, 1) != 1 {
		t.Error("CatCode encoding order wrong")
	}
}

func TestDatasetPanics(t *testing.T) {
	d := sample(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Cont on categorical", func() { d.Cont(1, 0) })
	mustPanic("CatCode on continuous", func() { d.CatCode(0, 0) })
	mustPanic("Domain on continuous", func() { d.Domain(0) })
	mustPanic("ContColumn on categorical", func() { d.ContColumn(1) })
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x").Build(); err == nil {
		t.Error("empty builder should error")
	}
	if _, err := NewBuilder("x").
		AddContinuous("a", []float64{1, 2}).
		SetGroups([]string{"g"}).
		Build(); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewBuilder("x").
		AddContinuous("a", []float64{1, 2}).
		Build(); err == nil {
		t.Error("missing groups should error")
	}
	if _, err := NewBuilder("x").
		AddContinuous("a", []float64{1, 2}).
		AddContinuous("a", []float64{3, 4}).
		SetGroups([]string{"g", "h"}).
		Build(); err == nil {
		t.Error("duplicate attribute name should error")
	}
	if _, err := NewBuilder("x").
		AddContinuous("a", []float64{1, 2}).
		SetGroups([]string{"g", "g"}).
		Build(); err == nil {
		t.Error("single group should error")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on invalid builder should panic")
		}
	}()
	NewBuilder("x").MustBuild()
}

func TestViewBasics(t *testing.T) {
	d := sample(t)
	all := d.All()
	if all.Len() != 6 {
		t.Errorf("all.Len = %d", all.Len())
	}
	if all.Row(3) != 3 {
		t.Errorf("all.Row(3) = %d", all.Row(3))
	}
	counts := all.GroupCounts()
	if counts[0] != 3 || counts[1] != 3 {
		t.Errorf("GroupCounts = %v", counts)
	}
	rows := all.Rows()
	if len(rows) != 6 || rows[5] != 5 {
		t.Errorf("Rows = %v", rows)
	}

	sub := d.Restrict([]int{1, 3, 5})
	if sub.Len() != 3 || sub.Row(1) != 3 {
		t.Error("Restrict view wrong")
	}
	gc := sub.GroupCounts()
	if gc[0] != 0 || gc[1] != 3 {
		t.Errorf("restricted GroupCounts = %v", gc)
	}
}

func TestViewFilters(t *testing.T) {
	d := sample(t)
	red := d.All().FilterCat(1, 0) // rows 0, 2, 5
	if red.Len() != 3 {
		t.Errorf("red.Len = %d", red.Len())
	}
	young := d.All().FilterRange(0, 20, 35) // (20,35]: ages 25, 35, 30 -> rows 0,1,5
	if young.Len() != 3 {
		t.Errorf("young.Len = %d, rows %v", young.Len(), young.Rows())
	}
	// Half-open semantics: the lower bound is exclusive, upper inclusive.
	exact := d.All().FilterRange(0, 25, 35)
	for _, r := range exact.Rows() {
		if d.Cont(0, r) <= 25 || d.Cont(0, r) > 35 {
			t.Errorf("row %d age %v outside (25,35]", r, d.Cont(0, r))
		}
	}
	both := red.FilterRange(0, 20, 30) // red and age in (20,30]: rows 0, 5
	if both.Len() != 2 {
		t.Errorf("both.Len = %d", both.Len())
	}
}

func TestViewEmptyFilterIsEmpty(t *testing.T) {
	// Regression: an empty filter result must not masquerade as the full
	// dataset (the all-rows view is flagged, not nil-encoded).
	d := sample(t)
	none := d.All().Filter(func(int) bool { return false })
	if none.Len() != 0 {
		t.Fatalf("empty filter Len = %d, want 0", none.Len())
	}
	if got := none.GroupCounts(); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty filter GroupCounts = %v", got)
	}
	if rows := none.Rows(); len(rows) != 0 {
		t.Errorf("empty filter Rows = %v", rows)
	}
	// Chaining off an empty view stays empty.
	if none.FilterRange(0, 0, 100).Len() != 0 {
		t.Error("filter on empty view should stay empty")
	}
}

func TestViewMedianQuantile(t *testing.T) {
	d := sample(t)
	all := d.All()
	// ages sorted: 25 30 35 45 55 65 -> lower-middle median = 35
	if got := all.Median(0); got != 35 {
		t.Errorf("Median = %v, want 35", got)
	}
	if got := all.Quantile(0, 0); got != 25 {
		t.Errorf("Quantile(0) = %v, want 25", got)
	}
	if got := all.Quantile(0, 1); got != 65 {
		t.Errorf("Quantile(1) = %v, want 65", got)
	}
	empty := d.Restrict([]int{})
	if got := empty.Median(0); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestViewMinMax(t *testing.T) {
	d := sample(t)
	lo, hi := d.All().MinMax(0)
	if lo != 25 || hi != 65 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	lo, hi = d.Restrict([]int{}).MinMax(0)
	if lo != 0 || hi != 0 {
		t.Errorf("empty MinMax = %v, %v", lo, hi)
	}
}

func TestViewSetOps(t *testing.T) {
	d := sample(t)
	a := d.Restrict([]int{0, 1, 2, 3})
	b := d.Restrict([]int{2, 3, 4, 5})
	inter := a.Intersect(b)
	if inter.Len() != 2 || inter.Row(0) != 2 || inter.Row(1) != 3 {
		t.Errorf("Intersect rows = %v", inter.Rows())
	}
}

func TestMedianSplitBalanced(t *testing.T) {
	// With distinct values, FilterRange at the median must put the lower
	// half (inclusive) on the left — the invariant the optimistic estimate
	// depends on.
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	groups := make([]string, len(vals))
	for i := range groups {
		groups[i] = []string{"A", "B"}[i%2]
	}
	d := NewBuilder("m").AddContinuous("x", vals).SetGroups(groups).MustBuild()
	med := d.All().Median(0)
	lo, hi := d.All().MinMax(0)
	left := d.All().FilterRange(0, lo-1, med)
	right := d.All().FilterRange(0, med, hi)
	if left.Len()+right.Len() != d.Rows() {
		t.Errorf("split loses rows: %d + %d != %d", left.Len(), right.Len(), d.Rows())
	}
	if left.Len() == 0 || right.Len() == 0 {
		t.Error("split produced an empty side on distinct values")
	}
	if left.Len() > (d.Rows()+1)/2 {
		t.Errorf("left side has %d rows, want <= %d", left.Len(), (d.Rows()+1)/2)
	}
}

func TestMaterializePreservesCoding(t *testing.T) {
	d := sample(t)
	sub := dMaterializeHelper(d, []int{1, 3, 5})
	if sub.Rows() != 3 {
		t.Fatalf("rows = %d", sub.Rows())
	}
	// Attribute order, domains and group names are shared with the
	// source, so codes and indices translate directly.
	if sub.NumAttrs() != d.NumAttrs() || sub.NumGroups() != d.NumGroups() {
		t.Fatal("shape changed")
	}
	for i := 0; i < sub.Rows(); i++ {
		srcRow := []int{1, 3, 5}[i]
		if sub.Cont(0, i) != d.Cont(0, srcRow) {
			t.Errorf("row %d: cont mismatch", i)
		}
		if sub.CatCode(1, i) != d.CatCode(1, srcRow) {
			t.Errorf("row %d: categorical code changed", i)
		}
		if sub.Group(i) != d.Group(srcRow) {
			t.Errorf("row %d: group code changed", i)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("materialized dataset invalid: %v", err)
	}
	// Domains are the same objects/content.
	if sub.Domain(1)[0] != d.Domain(1)[0] {
		t.Error("domain changed")
	}
}

func dMaterializeHelper(d *Dataset, rows []int) *Dataset {
	return Materialize(d.Restrict(rows))
}

func TestKindString(t *testing.T) {
	if Categorical.String() != "categorical" || Continuous.String() != "continuous" {
		t.Error("Kind.String wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include the code")
	}
}

func TestAttrsKey(t *testing.T) {
	attrs := []int{4, 0, 2}
	for _, tc := range []struct {
		attrs []int
		want  string
	}{
		{nil, "all"},
		{[]int{}, ""},
		{[]int{3}, "3"},
		{attrs, "0,2,4"},
	} {
		if got := AttrsKey(tc.attrs); got != tc.want {
			t.Errorf("AttrsKey(%v) = %q, want %q", tc.attrs, got, tc.want)
		}
	}
	if attrs[0] != 4 || attrs[1] != 0 || attrs[2] != 2 {
		t.Errorf("AttrsKey sorted its argument in place: %v", attrs)
	}
}
