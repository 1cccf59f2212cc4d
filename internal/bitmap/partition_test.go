package bitmap

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkPartition asserts the Index invariant the two-group kernel relies
// on: every row of the universe is in exactly one group mask, and no
// bitmap has a padding bit set.
func checkPartition(t *testing.T, ix *Index, what string) {
	t.Helper()
	sets := append([]*Set(nil), ix.groups...)
	for _, vals := range ix.values {
		sets = append(sets, vals...)
	}
	for _, s := range sets {
		if s.n != ix.n || len(s.words) != (ix.n+63)/64 {
			t.Fatalf("%s: bitmap over %d rows in %d words, index has %d rows", what, s.n, len(s.words), ix.n)
		}
		if r := uint(ix.n & 63); r != 0 && s.words[len(s.words)-1]>>r != 0 {
			t.Fatalf("%s: padding bits set: last word %#x over %d rows", what, s.words[len(s.words)-1], ix.n)
		}
	}
	for row := 0; row < ix.n; row++ {
		in := 0
		for _, g := range ix.groups {
			if g.Contains(row) {
				in++
			}
		}
		if in != 1 {
			t.Fatalf("%s: row %d is in %d group masks", what, row, in)
		}
	}
}

func TestNewIndexPartitionsUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, groups := range []int{2, 3} {
		for _, rows := range []int{2, 7, 63, 65, 130, 1001} {
			d := kernelDataset(rng, rows, 5, groups)
			checkPartition(t, NewIndex(d), fmt.Sprintf("NewIndex groups=%d rows=%d", groups, rows))
		}
	}
}

// TestNewIndexMatchesRows: every bitmap NewIndex builds a word at a time
// holds exactly the rows whose code it stands for, on row counts around
// word boundaries and on domains wider than a word.
func TestNewIndexMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, domain := range []int{1, 5, 70} {
		for _, rows := range []int{2, 63, 64, 65, 128, 1001} {
			d := kernelDataset(rng, rows, domain, 3)
			ix := NewIndex(d)
			for row := 0; row < rows; row++ {
				for code := range d.Domain(0) {
					if got, want := ix.Value(0, code).Contains(row), d.CatCode(0, row) == code; got != want {
						t.Fatalf("domain %d rows %d: row %d in value %d's bitmap is %v, want %v", domain, rows, row, code, got, want)
					}
				}
				for g := 0; g < d.NumGroups(); g++ {
					if got, want := ix.Group(g).Contains(row), d.Group(row) == g; got != want {
						t.Fatalf("domain %d rows %d: row %d in group %d's mask is %v, want %v", domain, rows, row, g, got, want)
					}
				}
			}
			checkPartition(t, ix, fmt.Sprintf("domain=%d rows=%d", domain, rows))
		}
	}
}
