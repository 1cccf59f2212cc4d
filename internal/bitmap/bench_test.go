package bitmap

import (
	"math/rand"
	"strconv"
	"testing"

	"sdadcs/internal/dataset"
)

func benchData(n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(7))
	a := make([]string, n)
	b := make([]string, n)
	g := make([]string, n)
	for i := range a {
		a[i] = "a" + strconv.Itoa(rng.Intn(5))
		b[i] = "b" + strconv.Itoa(rng.Intn(5))
		g[i] = "g" + strconv.Itoa(i%2)
	}
	return dataset.NewBuilder("bench").
		AddCategorical("a", a).
		AddCategorical("b", b).
		SetGroups(g).
		MustBuild()
}

// BenchmarkCoverCountBitmap measures the bitmap path: intersect two value
// bitmaps and popcount per group.
func BenchmarkCoverCountBitmap(b *testing.B) {
	d := benchData(100000)
	ix := NewIndex(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cover := ix.Value(0, 1).And(ix.Value(1, 2))
		ix.GroupCounts(cover)
	}
}

// BenchmarkCoverCountView measures the equivalent row-scan path the miner
// would otherwise use.
func BenchmarkCoverCountView(b *testing.B) {
	d := benchData(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.All().FilterCat(0, 1).FilterCat(1, 2).GroupCounts()
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	d := benchData(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(d)
	}
}

// BenchmarkAndGroupCounts measures the frontier's counting kernel: a
// lazy cover (parent ∧ value bitmap) popcounted against both group masks
// in one pass, with no intersection written.
func BenchmarkAndGroupCounts(b *testing.B) {
	d := benchData(100000)
	ix := NewIndex(d)
	counts := make([]int, d.NumGroups())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.AndGroupCountsInto(ix.Value(0, 1), ix.Value(1, 2), counts)
	}
}
