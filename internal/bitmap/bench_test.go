package bitmap

import (
	"fmt"
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

func BenchmarkIndexBuild(b *testing.B) {
	d := benchData(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(d)
	}
}

// BenchmarkAndGroupCounts measures the frontier's two-group counting
// kernel: a lazy cover (parent ∧ value bitmap) popcounted against both
// group masks in one pass, with no intersection written. It runs at the
// cover sizes the repository benchmark's workloads count: 16 words
// (stream-drift's 1,000-row window), 40 words (serve-mixed's 2,500-row
// dataset) and 500 words (mine-categorical's 32,000 rows).
// kernel=avx512 runs AndGroupCountsInto where it takes the vector kernel;
// kernel=scalar runs the Go loop every other CPU runs.
func BenchmarkAndGroupCounts(b *testing.B) {
	for _, words := range []int{16, 40, 500} {
		d := benchData(words * 64)
		ix := NewIndex(d)
		a, v := ix.Value(0, 1), ix.Value(1, 2)
		counts := make([]int, d.NumGroups())
		b.Run(fmt.Sprintf("words=%d/kernel=avx512", words), func(b *testing.B) {
			if !useAVX512 {
				b.Skip("this CPU has no AVX-512 kernel")
			}
			for i := 0; i < b.N; i++ {
				ix.AndGroupCountsInto(a, v, counts)
			}
		})
		b.Run(fmt.Sprintf("words=%d/kernel=scalar", words), func(b *testing.B) {
			g0 := ix.Group(0).words
			for i := 0; i < b.N; i++ {
				t, c0 := andCountScalar(a.words, v.words, g0)
				counts[0], counts[1] = c0, t-c0
			}
		})
	}
}
