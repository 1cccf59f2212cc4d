package core

import (
	"context"
	"strings"
	"testing"

	"sdadcs/internal/dataset"
)

// orderDataset builds the minimal repro the differential oracle reduced
// seed 17 (constant-column shape) to: a categorical attribute with real
// contrast structure, a constant continuous column (never splittable), and
// a splittable continuous column — in the given attribute order.
func orderDataset(tb testing.TB, reversed bool) *dataset.Dataset {
	tb.Helper()
	const rows = 60
	cat := make([]string, rows)
	konst := make([]float64, rows)
	split := make([]float64, rows)
	groups := make([]string, rows)
	for i := 0; i < rows; i++ {
		konst[i] = 3.5
		if i%2 == 0 {
			groups[i] = "g0"
			cat[i] = "a"
			split[i] = 1
		} else {
			groups[i] = "g1"
			cat[i] = "b"
			split[i] = 5
		}
		// A little cross-structure so the cat×cont combination has a
		// contrast of its own.
		if i%5 == 0 {
			cat[i] = "a"
		}
	}
	b := dataset.NewBuilder("order-sensitivity")
	if reversed {
		b.AddContinuous("split", split).AddContinuous("konst", konst).AddCategorical("cat", cat)
	} else {
		b.AddCategorical("cat", cat).AddContinuous("konst", konst).AddContinuous("split", split)
	}
	return b.SetGroups(groups).MustBuild()
}

// TestLevelwiseColumnOrderSensitivity pins a behaviour the differential
// oracle's column-reorder battery discovered: the levelwise search extends
// a continuous combination only if its discretization split at least once,
// and candidate generation only appends attributes with HIGHER indices
// than the combination's last. A combination whose prefix (in column
// order) contains a dead continuous attribute is therefore unreachable:
// with {cat, konst, split}, the level-2 node {cat=?, konst} never splits
// (konst is constant), dies, and {cat, konst, split} is never enumerated —
// while the reversed column order reaches the same attribute set through
// the alive prefix {split} → {split, konst} → {split, konst, cat}.
//
// This is a property of the paper's levelwise candidate generation (the
// aliveness gate is Algorithm 1's "extend only if the discretization
// refined"), NOT a counting bug: the differential harness verifies both
// orderings against the exhaustive reference miner exactly
// (internal/oracle, CheckReorder documents the invariants that DO hold).
// If this test ever flips, the enumeration semantics changed and the
// oracle's expand() transliteration must change with it.
func TestLevelwiseColumnOrderSensitivity(t *testing.T) {
	mine := func(d *dataset.Dataset) map[string]bool {
		res, err := MineContext(context.Background(), d, Config{
			TopK:                 TopKUnbounded,
			Pruning:              &Pruning{},
			SkipMeaningfulFilter: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Render patterns by attribute name so the two orderings are
		// comparable: count how many distinct attributes each pattern
		// names.
		out := map[string]bool{}
		for _, c := range res.Contrasts {
			names := make([]string, 0, c.Set.Len())
			for _, it := range c.Set.Items() {
				names = append(names, d.Attr(it.Attr).Name)
			}
			out[strings.Join(names, "|")] = true
		}
		return out
	}

	base := mine(orderDataset(t, false))
	reversed := mine(orderDataset(t, true))

	// The three-attribute combination is reachable only when the dead
	// constant column is NOT on the prefix path.
	wantOnlyReversed := "split|konst|cat"
	if base[wantOnlyReversed] {
		t.Errorf("base order unexpectedly reached the 3-attribute combination %q — "+
			"the aliveness gate semantics changed; update internal/oracle.expand to match",
			wantOnlyReversed)
	}
	if !reversed[wantOnlyReversed] {
		t.Errorf("reversed order did not reach %q; pattern sets: base=%v reversed=%v",
			wantOnlyReversed, base, reversed)
	}

	// The semantics that must NOT differ: both orders find the pure
	// categorical contrast and the split-attribute contrast.
	for _, sig := range []string{"cat", "split"} {
		if !base[sig] {
			t.Errorf("base order missing %q contrast; got %v", sig, base)
		}
		if !reversed[sig] {
			t.Errorf("reversed order missing %q contrast; got %v", sig, reversed)
		}
	}
}
