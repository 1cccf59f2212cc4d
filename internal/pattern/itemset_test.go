package pattern

import (
	"math"
	"strings"
	"testing"

	"sdadcs/internal/dataset"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.NewBuilder("t").
		AddContinuous("age", []float64{25, 35, 45, 55, 65, 30}).
		AddCategorical("color", []string{"red", "blue", "red", "green", "blue", "red"}).
		AddContinuous("hours", []float64{40, 50, 60, 20, 45, 38}).
		SetGroups([]string{"A", "B", "A", "B", "A", "B"}).
		MustBuild()
}

func TestItemMatches(t *testing.T) {
	d := testData(t)
	red := CatItem(1, 0)
	if !red.Matches(d, 0) || red.Matches(d, 1) {
		t.Error("categorical match wrong")
	}
	young := RangeItem(0, 20, 35)
	if !young.Matches(d, 0) || young.Matches(d, 2) {
		t.Error("range match wrong")
	}
	if !young.Matches(d, 1) { // 35 is inside (20, 35]
		t.Error("upper bound should be inclusive")
	}
}

func TestItemSubsumes(t *testing.T) {
	wide := RangeItem(0, 0, 100)
	narrow := RangeItem(0, 20, 35)
	if !wide.Subsumes(narrow) {
		t.Error("wide range should subsume narrow")
	}
	if narrow.Subsumes(wide) {
		t.Error("narrow range should not subsume wide")
	}
	if wide.Subsumes(RangeItem(1, 20, 35)) {
		t.Error("different attribute cannot subsume")
	}
	if !CatItem(1, 0).Subsumes(CatItem(1, 0)) {
		t.Error("categorical item should subsume itself")
	}
	if CatItem(1, 0).Subsumes(CatItem(1, 1)) {
		t.Error("different codes should not subsume")
	}
}

func TestItemFormat(t *testing.T) {
	d := testData(t)
	if got := CatItem(1, 2).Format(d); got != "color = green" {
		t.Errorf("Format = %q", got)
	}
	got := RangeItem(0, 20, 35).Format(d)
	if !strings.Contains(got, "age") || !strings.Contains(got, "20") {
		t.Errorf("Format = %q", got)
	}
}

func TestItemsetSortedAndKey(t *testing.T) {
	a := NewItemset(RangeItem(2, 0, 50), CatItem(1, 0))
	b := NewItemset(CatItem(1, 0), RangeItem(2, 0, 50))
	if a.Key() != b.Key() {
		t.Errorf("keys differ for same items: %q vs %q", a.Key(), b.Key())
	}
	if a.Item(0).Attr != 1 || a.Item(1).Attr != 2 {
		t.Error("items not sorted by attribute")
	}
	if !a.Equal(b) {
		t.Error("itemsets with same items should be equal")
	}
	c := NewItemset(CatItem(1, 1), RangeItem(2, 0, 50))
	if a.Key() == c.Key() || a.Equal(c) {
		t.Error("different itemsets should differ")
	}
}

func TestItemsetWithWithout(t *testing.T) {
	s := NewItemset(CatItem(1, 0))
	s2 := s.With(RangeItem(0, 10, 20))
	if s2.Len() != 2 || s.Len() != 1 {
		t.Error("With should not mutate the receiver")
	}
	// Replacing an item on the same attribute.
	s3 := s2.With(RangeItem(0, 15, 18))
	if s3.Len() != 2 {
		t.Errorf("replace should keep length, got %d", s3.Len())
	}
	it, ok := s3.ItemOn(0)
	if !ok || it.Range.Lo != 15 {
		t.Error("With should replace item on same attribute")
	}
	s4 := s3.Without(0)
	if s4.Len() != 1 {
		t.Error("Without failed")
	}
	if _, ok := s4.ItemOn(0); ok {
		t.Error("Without left the item behind")
	}
}

// TestItemsetWithMatchesNewItemset: With equals building the itemset from
// scratch — same items in the same order, same Key — whether the new item
// lands after every attribute (the append fast path), before or between
// them, or replaces the item on its attribute. Appending never writes into
// the receiver's backing array, which siblings share.
func TestItemsetWithMatchesNewItemset(t *testing.T) {
	base := NewItemset(CatItem(2, 1), RangeItem(5, 0, 10))
	cases := []struct {
		name string
		it   Item
		want Itemset
	}{
		{"ordered append", CatItem(7, 3), NewItemset(append(base.Items(), CatItem(7, 3))...)},
		{"ordered append, range", RangeItem(9, -1, 1), NewItemset(append(base.Items(), RangeItem(9, -1, 1))...)},
		{"unordered, first", CatItem(0, 4), NewItemset(append(base.Items(), CatItem(0, 4))...)},
		{"unordered, between", RangeItem(3, 1, 2), NewItemset(append(base.Items(), RangeItem(3, 1, 2))...)},
		{"replace last", RangeItem(5, 2, 3), NewItemset(CatItem(2, 1), RangeItem(5, 2, 3))},
		{"replace first", CatItem(2, 0), NewItemset(CatItem(2, 0), RangeItem(5, 0, 10))},
		{"empty receiver", CatItem(4, 1), NewItemset(CatItem(4, 1))},
	}
	for _, tc := range cases {
		recv := base
		if tc.name == "empty receiver" {
			recv = NewItemset()
		}
		got := recv.With(tc.it)
		if !got.Equal(tc.want) || got.Key() != tc.want.Key() {
			t.Errorf("%s: With = %q, want %q", tc.name, got.Key(), tc.want.Key())
		}
	}
	// Siblings appended to one parent must not share storage, even when
	// the parent's backing array has spare capacity (Without leaves some).
	parent := NewItemset(CatItem(1, 0), CatItem(2, 0)).Without(2)
	a, b := parent.With(CatItem(3, 0)), parent.With(CatItem(3, 1))
	if a.Key() != "1=0|3=0" || b.Key() != "1=0|3=1" || parent.Len() != 1 {
		t.Errorf("sibling appends interfere: %q, %q, parent %q", a.Key(), b.Key(), parent.Key())
	}
}

func TestItemsetSubsetGeneralizes(t *testing.T) {
	ab := NewItemset(CatItem(1, 0), RangeItem(0, 20, 40))
	a := NewItemset(CatItem(1, 0))
	if !a.SubsetOf(ab) || ab.SubsetOf(a) {
		t.Error("SubsetOf wrong")
	}
	wide := NewItemset(RangeItem(0, 0, 100))
	if !wide.Generalizes(ab) {
		t.Error("wide range itemset should generalize")
	}
	if wide.SubsetOf(ab) {
		t.Error("SubsetOf requires exact ranges")
	}
	narrow := NewItemset(RangeItem(0, 25, 30))
	if narrow.Generalizes(ab) {
		t.Error("narrower range should not generalize")
	}
}

func TestItemsetCover(t *testing.T) {
	d := testData(t)
	s := NewItemset(CatItem(1, 0), RangeItem(0, 20, 30)) // red & age in (20,30]: rows 0, 5
	cov := s.Cover(d.All())
	if cov.Len() != 2 {
		t.Errorf("cover = %v", cov.Rows())
	}
	empty := NewItemset()
	if empty.Cover(d.All()).Len() != d.Rows() {
		t.Error("empty itemset should cover everything")
	}
}

func TestItemsetVolume(t *testing.T) {
	s := NewItemset(RangeItem(0, 0, 2), RangeItem(2, 0, 3))
	if got := s.Volume(); got != 6 {
		t.Errorf("Volume = %v, want 6", got)
	}
	if got := NewItemset(CatItem(1, 0)).Volume(); got != 0 {
		t.Errorf("categorical-only volume = %v, want 0", got)
	}
	mixed := NewItemset(CatItem(1, 0), RangeItem(0, 1, 4))
	if got := mixed.Volume(); got != 3 {
		t.Errorf("mixed volume = %v, want 3", got)
	}
	inf := NewItemset(RangeItem(0, math.Inf(-1), 5))
	if !math.IsInf(inf.Volume(), 1) {
		t.Error("unbounded range should have infinite volume")
	}
}

func TestItemsetFormat(t *testing.T) {
	d := testData(t)
	s := NewItemset(CatItem(1, 0), RangeItem(0, 20, 30))
	got := s.Format(d)
	if !strings.Contains(got, "color = red") || !strings.Contains(got, " and ") {
		t.Errorf("Format = %q", got)
	}
	if NewItemset().Format(d) != "(empty)" {
		t.Error("empty format wrong")
	}
}
