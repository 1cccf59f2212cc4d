package oracle

import (
	"os"
	"strconv"
	"testing"

	"sdadcs/internal/core"
)

// seedCount reads the ORACLE_SEEDS override (the nightly sweep sets 500).
func seedCount(t *testing.T, def int) int {
	t.Helper()
	if s := os.Getenv("ORACLE_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad ORACLE_SEEDS=%q", s)
		}
		return n
	}
	return def
}

func failDivergences(t *testing.T, seed int64, shape Shape, div []Divergence) {
	t.Helper()
	for _, v := range div {
		t.Errorf("seed %d (%s): %s", seed, shape, v)
	}
}

// TestOracleDifferential is the tier-1 differential harness: for every
// seed it generates an adversarial dataset (cycling through the shape
// families) and runs the three checks — exact equality with pruning off,
// top-k selection consistency, and full-default soundness.
func TestOracleDifferential(t *testing.T) {
	seeds := seedCount(t, 50)
	for seed := int64(0); seed < int64(seeds); seed++ {
		d := Generate(seed)
		shape := Shape(seed % int64(numShapes))

		failDivergences(t, seed, shape, CheckExact(d, ExactConfig()))

		topkCfg := ExactConfig()
		topkCfg.TopK = 10
		failDivergences(t, seed, shape, CheckTopK(d, topkCfg))

		failDivergences(t, seed, shape, CheckSoundness(d, core.Config{}))

		if t.Failed() {
			t.Fatalf("stopping at first divergent seed %d (%s)", seed, shape)
		}
	}
}

// TestOracleMetamorphic runs the transformation batteries: bit-equality
// across workers/instrumentation/row order, canonical equality
// under group relabeling and column reordering, and the ×2 row-duplication
// scaling relation. The batteries run under the exhaustive configuration
// (deterministic, unbounded) and the bit-equality battery additionally
// under the full default configuration, where pruning and the top-k bound
// are active and must still be order-independent.
func TestOracleMetamorphic(t *testing.T) {
	seeds := seedCount(t, 50)
	if seeds > 50 {
		seeds = 50 // the nightly differential sweep widens; this battery stays fixed
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		d := Generate(seed)
		shape := Shape(seed % int64(numShapes))

		failDivergences(t, seed, shape, CheckBitEquality(d, ExactConfig(), seed+1))
		failDivergences(t, seed, shape, CheckBitEquality(d, core.Config{}, seed+1))
		failDivergences(t, seed, shape, CheckRelabel(d, ExactConfig()))
		failDivergences(t, seed, shape, CheckReorder(d, ExactConfig()))
		failDivergences(t, seed, shape, CheckDuplication(d, ExactConfig(), 2))

		if t.Failed() {
			t.Fatalf("stopping at first divergent seed %d (%s)", seed, shape)
		}
	}
}

// TestOracleAdversarialShapes pins each adversarial family explicitly
// (rather than relying on the seed cycle) across several seeds per shape:
// the degenerate windows where pruning-heavy miners historically hide
// bugs must still agree with the oracle exactly and soundly.
func TestOracleAdversarialShapes(t *testing.T) {
	shapes := []Shape{ShapeOneGroupDominant, ShapeConstantColumn, ShapeDuplicateHeavy, ShapeTiedGrid, ShapeSignedZero}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			for seed := int64(100); seed < 110; seed++ {
				d := GenerateShape(seed, shape)
				failDivergences(t, seed, shape, CheckExact(d, ExactConfig()))
				failDivergences(t, seed, shape, CheckSoundness(d, core.Config{}))
				if t.Failed() {
					t.Fatalf("stopping at first divergent seed %d", seed)
				}
			}
		})
	}
}

// TestGenerateShapesWellFormed sanity-checks the generator itself: every
// shape must build a valid dataset with at least two groups, and the
// constant-column family must actually contain a constant column.
func TestGenerateShapesWellFormed(t *testing.T) {
	for shape := Shape(0); shape < numShapes; shape++ {
		for seed := int64(0); seed < 20; seed++ {
			d := GenerateShape(seed, shape)
			if err := d.Validate(); err != nil {
				t.Fatalf("%s seed %d: invalid dataset: %v", shape, seed, err)
			}
			if d.NumGroups() < 2 {
				t.Fatalf("%s seed %d: %d groups", shape, seed, d.NumGroups())
			}
		}
	}
	d := GenerateShape(3, ShapeConstantColumn)
	conts := d.ContinuousAttrs()
	if len(conts) == 0 {
		t.Fatal("constant-column dataset has no continuous attribute")
	}
	col := d.ContColumn(conts[0])
	for _, v := range col {
		if v != col[0] {
			t.Fatalf("cont0 is not constant: %v vs %v", v, col[0])
		}
	}
}

// TestRefMinerEmitsSomething guards against a vacuous oracle: across the
// first 25 seeds the reference miner must find a non-trivial number of
// patterns (the generator plants real contrast structure).
func TestRefMinerEmitsSomething(t *testing.T) {
	total := 0
	for seed := int64(0); seed < 25; seed++ {
		d := Generate(seed)
		res := Mine(d, RefConfig(ExactConfig()))
		total += len(res.Contrasts)
		if len(res.LevelAlphas) == 0 {
			t.Fatalf("seed %d: no levels recorded", seed)
		}
		if a := res.Alpha(1); !(a <= 0.05) {
			t.Fatalf("seed %d: level-1 alpha %v not Bonferroni-adjusted", seed, a)
		}
	}
	if total == 0 {
		t.Fatal("oracle found zero patterns over 25 seeds; generator too weak")
	}
}

// TestTransformsPreserveShape pins the transform helpers themselves.
func TestTransformsPreserveShape(t *testing.T) {
	d := Generate(1)
	if p := PermuteRows(d, 7); p.Rows() != d.Rows() || p.NumAttrs() != d.NumAttrs() {
		t.Error("PermuteRows changed the dataset shape")
	}
	if dup := DuplicateRows(d, 3); dup.Rows() != 3*d.Rows() {
		t.Errorf("DuplicateRows(3): %d rows, want %d", dup.Rows(), 3*d.Rows())
	}
	order := make([]int, d.NumAttrs())
	for i := range order {
		order[i] = d.NumAttrs() - 1 - i
	}
	rd := ReorderColumns(d, order)
	if rd.Attr(0).Name != d.Attr(d.NumAttrs()-1).Name {
		t.Error("ReorderColumns did not reverse the attribute order")
	}
	ld, rename := RelabelGroups(d)
	if ld.NumGroups() != d.NumGroups() {
		t.Error("RelabelGroups changed the group count")
	}
	if rename(d.GroupName(0)) != d.GroupName(1) || rename(rename(d.GroupName(0))) != d.GroupName(0) {
		t.Error("rename is not the expected transposition")
	}
}
