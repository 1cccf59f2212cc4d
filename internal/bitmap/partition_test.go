package bitmap

import (
	"fmt"
	"math/rand"
	"testing"

	"sdadcs/internal/dataset"
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

// TestMaterializePartitionsUniverse checks DeltaIndex.Materialize
// snapshots both while the window fills (identity mapping) and after it
// wraps (rotation, with evicted rows' bits flipped out).
func TestMaterializePartitionsUniverse(t *testing.T) {
	const window = 41 // not a multiple of 64: partial last word
	catVals := []string{"a", "b", "c"}
	for _, groups := range [][]string{{"g0", "g1"}, {"g0", "g1", "g2"}} {
		rng := rand.New(rand.NewSource(int64(len(groups))))
		di := NewDeltaIndex(window, 1)
		ringCat := make([]string, window)
		ringGrp := make([]string, window)
		start, count, wrapped := 0, 0, 0
		for step := 0; step < 3*window; step++ {
			pos := (start + count) % window
			had := count == window
			if had {
				start = (start + 1) % window
			} else {
				count++
			}
			v := catVals[rng.Intn(len(catVals))]
			di.UpdateCat(0, pos, ringCat[pos], v, had)
			ringCat[pos] = v
			g := groups[rng.Intn(len(groups))]
			di.UpdateGroup(pos, ringGrp[pos], g, had)
			ringGrp[pos] = g

			cat, grp := make([]string, count), make([]string, count)
			for i := range cat {
				p := (start + i) % window
				cat[i], grp[i] = ringCat[p], ringGrp[p]
			}
			d, err := dataset.NewBuilder("ring").AddCategorical("c0", cat).SetGroups(grp).Build()
			if err != nil {
				continue // single group in the window: not mineable
			}
			if had {
				wrapped++
			}
			checkPartition(t, di.Materialize(d, start, count, []int{0}),
				fmt.Sprintf("Materialize groups=%d step=%d count=%d start=%d", len(groups), step, count, start))
		}
		if wrapped == 0 {
			t.Fatalf("groups=%d: no snapshot after the window wrapped", len(groups))
		}
	}
}
