package bitmap

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"sdadcs/internal/dataset"
)

func TestSetBasics(t *testing.T) {
	s := New(130) // crosses word boundaries
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Add(i)
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d", s.Count())
	}
	if !s.Contains(64) || s.Contains(65) {
		t.Error("Contains wrong")
	}
	rows := s.Rows()
	want := []int{0, 63, 64, 127, 129}
	if len(rows) != len(want) {
		t.Fatalf("Rows = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("Rows = %v", rows)
		}
	}
	if s.Universe() != 130 {
		t.Error("Universe wrong")
	}
}

func TestSetFill(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("Fill(%d) count = %d", n, s.Count())
		}
	}
}

func TestAndOperations(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i)
	}
	// Multiples of 6 in [0, 100): 17 of them.
	inter := a.And(b)
	if inter.Count() != 17 {
		t.Errorf("And count = %d", inter.Count())
	}
	dst := New(100)
	a.AndInto(b, dst)
	if dst.Count() != 17 {
		t.Errorf("AndInto count = %d", dst.Count())
	}
}

// Property: the count of And agrees with a brute-force intersection count.
func TestAndCountProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 10
		a := New(n)
		b := New(n)
		inA := make([]bool, n)
		inB := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
				inA[i] = true
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
				inB[i] = true
			}
		}
		want := 0
		for i := 0; i < n; i++ {
			if inA[i] && inB[i] {
				want++
			}
		}
		return a.And(b).Count() == want && a.AndAny(b) == (want > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func testDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	a := make([]string, n)
	b := make([]string, n)
	g := make([]string, n)
	for i := range a {
		a[i] = "a" + strconv.Itoa(rng.Intn(4))
		b[i] = "b" + strconv.Itoa(rng.Intn(3))
		g[i] = "g" + strconv.Itoa(i%2)
	}
	return dataset.NewBuilder("bm").
		AddCategorical("a", a).
		AddCategorical("b", b).
		AddContinuous("x", make([]float64, n)).
		SetGroups(g).
		MustBuild()
}

func TestIndexMatchesViews(t *testing.T) {
	d := testDataset(t, 500)
	ix := NewIndex(d)
	if ix.Rows() != 500 {
		t.Fatal("Rows wrong")
	}
	// Per-value bitmaps agree with view filtering.
	for _, attr := range d.CategoricalAttrs() {
		for code := range d.Domain(attr) {
			bmCount := ix.Value(attr, code).Count()
			viewCount := d.All().FilterCat(attr, code).Len()
			if bmCount != viewCount {
				t.Errorf("attr %d code %d: bitmap %d vs view %d",
					attr, code, bmCount, viewCount)
			}
		}
	}
	// Group masks agree with group sizes.
	sizes := d.GroupSizes()
	for g := range sizes {
		if ix.Group(g).Count() != sizes[g] {
			t.Errorf("group %d: %d vs %d", g, ix.Group(g).Count(), sizes[g])
		}
	}
	// Joint cover: a=a1 AND b=b2.
	cover := ix.Value(0, 1).And(ix.Value(1, 2))
	viewCover := d.All().FilterCat(0, 1).FilterCat(1, 2)
	if cover.Count() != viewCover.Len() {
		t.Errorf("joint cover: %d vs %d", cover.Count(), viewCover.Len())
	}
	counts := make([]int, d.NumGroups())
	ix.GroupCountsInto(cover, counts)
	viewCounts := viewCover.GroupCounts()
	for g := range counts {
		if counts[g] != viewCounts[g] {
			t.Errorf("group counts differ: %v vs %v", counts, viewCounts)
		}
	}
}

func TestIndexAll(t *testing.T) {
	d := testDataset(t, 77)
	ix := NewIndex(d)
	if ix.All().Count() != 77 {
		t.Error("All() should cover the universe")
	}
}
