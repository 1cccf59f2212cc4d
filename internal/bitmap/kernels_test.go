package bitmap

import (
	"fmt"
	"math/rand"
	"testing"

	"sdadcs/internal/dataset"
)

// randomSet fills a set over universe n with density p.
func randomSet(rng *rand.Rand, n int, p float64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			s.Add(i)
		}
	}
	return s
}

// naiveAndCount is the reference two-pass loop the fused kernels must
// match bit-for-bit: materialize the intersection, then popcount it.
func naiveAndCount(a, b *Set) (*Set, int) {
	inter := a.And(b)
	return inter, inter.Count()
}

func sameSet(a, b *Set) bool {
	if a.Universe() != b.Universe() {
		return false
	}
	ra, rb := a.Rows(), b.Rows()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// TestAndCountIntoMatchesNaive: writing an intersection into a reused
// destination (AndInto) and counting it equals the two-pass And+Count on
// random word patterns, including universes with a trailing partial word,
// when dst holds stale bits, and when dst aliases either operand (the
// in-place form the prune cache uses).
func TestAndCountIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 7, 63, 64, 65, 128, 193, 1000, 4113} {
		for _, p := range []float64{0, 0.01, 0.2, 0.5, 0.97, 1} {
			for trial := 0; trial < 8; trial++ {
				a := randomSet(rng, n, p)
				b := randomSet(rng, n, rng.Float64())
				want, wantCount := naiveAndCount(a, b)

				dst := New(n)
				if got := a.AndInto(b, dst); got != dst {
					t.Fatalf("n=%d p=%v: AndInto did not return dst", n, p)
				} else if got.Count() != wantCount || !sameSet(got, want) {
					t.Fatalf("n=%d p=%v: AndInto count %d, naive %d", n, p, got.Count(), wantCount)
				}

				// Stale destination: every word must be overwritten.
				dirty := New(n)
				dirty.Fill()
				if got := a.AndInto(b, dirty); got.Count() != wantCount || !sameSet(got, want) {
					t.Fatalf("n=%d p=%v: AndInto wrong on a stale destination", n, p)
				}

				// Aliased destination, on copies so a and b stay intact.
				left, right := a.And(a), b.And(b)
				if got := left.AndInto(b, left); got.Count() != wantCount || !sameSet(got, want) {
					t.Fatalf("n=%d p=%v: AndInto wrong with dst = receiver", n, p)
				}
				if got := a.AndInto(right, right); got.Count() != wantCount || !sameSet(got, want) {
					t.Fatalf("n=%d p=%v: AndInto wrong with dst = operand", n, p)
				}
			}
		}
	}
}

// TestAndAnyMatchesNaive: the early-exit emptiness test of an intersection
// agrees with a full count on random word patterns, including universes
// with a trailing partial word and empty and full operands.
func TestAndAnyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 63, 64, 65, 129, 1000, 4113} {
		for _, p := range []float64{0, 0.001, 0.05, 0.5, 1} {
			for trial := 0; trial < 8; trial++ {
				a := randomSet(rng, n, p)
				b := randomSet(rng, n, rng.Float64()*p)
				_, c := naiveAndCount(a, b)
				if got := a.AndAny(b); got != (c > 0) {
					t.Fatalf("n=%d p=%v count=%d: AndAny = %v", n, p, c, got)
				}
			}
		}
	}
}

// kernelDataset builds a random categorical dataset for index-level kernel
// tests: one categorical attribute with the given domain size and g groups.
func kernelDataset(rng *rand.Rand, rows, domain, groups int) *dataset.Dataset {
	vals := make([]string, rows)
	grp := make([]string, rows)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", rng.Intn(domain))
		grp[i] = fmt.Sprintf("g%d", rng.Intn(groups))
	}
	// Force every group name to appear so the builder sees >= 2 groups.
	for g := 0; g < groups && g < rows; g++ {
		grp[g] = fmt.Sprintf("g%d", g)
	}
	return dataset.NewBuilder("kernels").
		AddCategorical("attr", vals).
		SetGroups(grp).
		MustBuild()
}

// TestGroupCountsIntoMatchesNaive: the fused multi-mask popcount — both
// the unrolled two-group path and the general path — equals a per-group
// And+Count loop on random covers, for a single cover and for a lazy
// cover a ∩ b counted without writing the intersection.
func TestGroupCountsIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, groups := range []int{2, 3, 5} {
		for _, rows := range []int{7, 63, 64, 65, 130, 511, 512, 513, 1001, 1023, 1025, 4113} {
			d := kernelDataset(rng, rows, 6, groups)
			ix := NewIndex(d)
			for trial := 0; trial < 10; trial++ {
				a := randomSet(rng, rows, rng.Float64())
				b := randomSet(rng, rows, rng.Float64())
				inter, _ := naiveAndCount(a, b)
				got := make([]int, d.NumGroups())
				ix.GroupCountsInto(a, got)
				lazy := make([]int, d.NumGroups())
				ix.AndGroupCountsInto(a, b, lazy)
				for g := 0; g < d.NumGroups(); g++ {
					if _, want := naiveAndCount(a, ix.Group(g)); got[g] != want {
						t.Fatalf("groups=%d rows=%d g=%d: fused %d, naive %d",
							groups, rows, g, got[g], want)
					}
					if _, want := naiveAndCount(inter, ix.Group(g)); lazy[g] != want {
						t.Fatalf("groups=%d rows=%d g=%d: fused a∩b %d, naive %d",
							groups, rows, g, lazy[g], want)
					}
				}
			}
		}
	}
}

// kernelName names the two-group path AndGroupCountsInto takes here.
func kernelName() string {
	if useAVX512 {
		return "avx512"
	}
	return "scalar"
}

// TestAndCountScalarMatchesNaive holds the scalar two-group loop, the only
// path off amd64 and on CPUs without AVX-512, to the two-pass And+Count on
// random covers and group masks, so a host that runs the vector kernel
// still tests it.
func TestAndCountScalarMatchesNaive(t *testing.T) {
	t.Logf("AndGroupCountsInto two-group kernel: %s", kernelName())
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 1023, 1025, 4113} {
		for trial := 0; trial < 10; trial++ {
			a := randomSet(rng, n, rng.Float64())
			b := randomSet(rng, n, rng.Float64())
			g0 := randomSet(rng, n, rng.Float64())
			inter, wantT := naiveAndCount(a, b)
			_, wantC0 := naiveAndCount(inter, g0)
			if gotT, gotC0 := andCountScalar(a.words, b.words, g0.words); gotT != wantT || gotC0 != wantC0 {
				t.Fatalf("n=%d: scalar (%d, %d), naive (%d, %d)", n, gotT, gotC0, wantT, wantC0)
			}
		}
	}
}

// TestAndCountMatchesScalar: andCount, whichever kernel it runs, equals
// the scalar loop on word slices of every length from 0 to 40 words and
// at every start offset within an 8-word block, with random, empty and
// full words.
func TestAndCountMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	word := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return ^uint64(0)
		}
		return rng.Uint64()
	}
	buf := make([]uint64, 3*48)
	for trial := 0; trial < 20; trial++ {
		for i := range buf {
			buf[i] = word()
		}
		for n := 0; n <= 40; n++ {
			for off := 0; off < 8; off++ {
				a, b, g0 := buf[off:off+n], buf[48+off:48+off+n], buf[96+off:96+off+n]
				wantT, wantC0 := andCountScalar(a, b, g0)
				if gotT, gotC0 := andCount(a, b, g0); gotT != wantT || gotC0 != wantC0 {
					t.Fatalf("n=%d off=%d: %s kernel (%d, %d), scalar (%d, %d)",
						n, off, kernelName(), gotT, gotC0, wantT, wantC0)
				}
			}
		}
	}
}
