package stucco

import (
	"math/rand"
	"strconv"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// skewed builds a categorical dataset where attribute 0 value "hot" is
// strongly associated with group X, attribute 1 is mildly associated, and
// attribute 2 is noise.
func skewed(seed int64, n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	a0 := make([]string, n)
	a1 := make([]string, n)
	a2 := make([]string, n)
	g := make([]string, n)
	for i := range g {
		x := i%2 == 0
		if x {
			g[i] = "X"
		} else {
			g[i] = "Y"
		}
		if x && rng.Float64() < 0.8 || !x && rng.Float64() < 0.2 {
			a0[i] = "hot"
		} else {
			a0[i] = "cold"
		}
		if x && rng.Float64() < 0.6 || !x && rng.Float64() < 0.4 {
			a1[i] = "m1"
		} else {
			a1[i] = "m2"
		}
		a2[i] = "n" + strconv.Itoa(rng.Intn(3))
	}
	return dataset.NewBuilder("skewed").
		AddCategorical("a0", a0).
		AddCategorical("a1", a1).
		AddCategorical("a2", a2).
		SetGroups(g).
		MustBuild()
}

func TestMineFindsPlantedContrast(t *testing.T) {
	d := skewed(1, 2000)
	res := Mine(d, Config{})
	if len(res.Contrasts) == 0 {
		t.Fatal("no contrasts found")
	}
	// The top contrast should involve a0 = hot or a0 = cold.
	top := res.Contrasts[0]
	it, ok := top.Set.ItemOn(0)
	if !ok {
		t.Fatalf("top contrast %s does not use a0", top.Set.Format(d))
	}
	if v := d.Domain(0)[it.Code]; v != "hot" && v != "cold" {
		t.Errorf("top contrast value = %q", v)
	}
	if top.Score < 0.5 {
		t.Errorf("top score = %v, want ~0.6", top.Score)
	}
}

func TestMineNoContrastOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1000
	a := make([]string, n)
	g := make([]string, n)
	for i := range a {
		a[i] = "v" + strconv.Itoa(rng.Intn(4))
		g[i] = "g" + strconv.Itoa(rng.Intn(2))
	}
	d := dataset.NewBuilder("noise").
		AddCategorical("a", a).
		SetGroups(g).
		MustBuild()
	res := Mine(d, Config{})
	if len(res.Contrasts) != 0 {
		t.Errorf("found %d contrasts on pure noise", len(res.Contrasts))
	}
}

func TestMineRespectsDepth(t *testing.T) {
	d := skewed(3, 2000)
	res := Mine(d, Config{MaxDepth: 1})
	for _, c := range res.Contrasts {
		if c.Set.Len() > 1 {
			t.Errorf("depth-1 run produced itemset of size %d", c.Set.Len())
		}
	}
	res2 := Mine(d, Config{MaxDepth: 2})
	if res2.Stats.PartitionsEvaluated <= res.Stats.PartitionsEvaluated {
		t.Error("deeper search should test more candidates")
	}
}

func TestMineTopK(t *testing.T) {
	d := skewed(4, 2000)
	res := Mine(d, Config{TopK: 3})
	if len(res.Contrasts) > 3 {
		t.Errorf("TopK=3 returned %d contrasts", len(res.Contrasts))
	}
	// Sorted by descending score.
	for i := 1; i < len(res.Contrasts); i++ {
		if res.Contrasts[i].Score > res.Contrasts[i-1].Score {
			t.Error("contrasts not sorted")
		}
	}
}

func TestMineAttrsSubset(t *testing.T) {
	d := skewed(5, 2000)
	res := Mine(d, Config{Attrs: []int{1, 2}})
	for _, c := range res.Contrasts {
		if _, uses := c.Set.ItemOn(0); uses {
			t.Error("restricted search used excluded attribute")
		}
	}
}

func TestMinePruningReducesWork(t *testing.T) {
	d := skewed(6, 2000)
	full := Mine(d, Config{MaxDepth: 3})
	if full.Stats.SpacesPruned == 0 {
		t.Error("expected some pruning on this data")
	}
	if full.Stats.PartitionsEvaluated == 0 {
		t.Error("no candidates counted")
	}
}

func TestMineSupportsConsistency(t *testing.T) {
	// Every reported contrast's supports must match a direct recount.
	d := skewed(7, 1500)
	res := Mine(d, Config{})
	for _, c := range res.Contrasts {
		direct := pattern.SupportsOf(c.Set, d.All())
		for gi := range direct.Count {
			if direct.Count[gi] != c.Supports.Count[gi] {
				t.Errorf("%s: count[%d] = %d, direct %d",
					c.Set.Format(d), gi, c.Supports.Count[gi], direct.Count[gi])
			}
		}
	}
}

func TestMineDeterministic(t *testing.T) {
	d := skewed(8, 1500)
	a := Mine(d, Config{})
	b := Mine(d, Config{})
	if len(a.Contrasts) != len(b.Contrasts) {
		t.Fatal("non-deterministic result count")
	}
	for i := range a.Contrasts {
		if a.Contrasts[i].Set.Key() != b.Contrasts[i].Set.Key() {
			t.Fatal("non-deterministic order")
		}
	}
}

// TestMineGatesOnUncoveredExpectedCount: A=common covers every X row and
// 44 of the 50 Y rows. It is large (support difference 0.12) and its χ²
// p-value is far below α, and its covered rows pass the expected-count
// rule, but its 6 uncovered rows give the Y cell an expected count of
// 6·50/1050 ≈ 0.29. STUCCO does not emit such an itemset and traces why;
// SDAD-CS, which tests only the covered rows, does.
func TestMineGatesOnUncoveredExpectedCount(t *testing.T) {
	var a, g []string
	for i := 0; i < 1000; i++ {
		a, g = append(a, "common"), append(g, "X")
	}
	for i := 0; i < 50; i++ {
		v := "common"
		if i < 6 {
			v = "rare"
		}
		a, g = append(a, v), append(g, "Y")
	}
	d := dataset.NewBuilder("gate").AddCategorical("A", a).SetGroups(g).MustBuild()
	common := pattern.NewItemset(pattern.CatItem(0, 0)).Key()
	has := func(cs []pattern.Contrast) bool {
		for _, c := range cs {
			if c.Set.Key() == common {
				return true
			}
		}
		return false
	}

	tr := trace.New(0)
	if res := Mine(d, Config{Trace: tr}); has(res.Contrasts) {
		t.Error("stucco emitted A=common, whose uncovered Y cell expects fewer than 5 rows")
	}
	gated := 0
	for _, e := range tr.Snapshot().Events {
		if e.Kind == trace.KindPrune && e.Key() == common {
			if e.Arg != "expected_count_gate" || e.V1 >= 5 || e.V2 != 5 {
				t.Errorf("A=common traced prune %q v=%v,%v, want expected_count_gate below 5", e.Arg, e.V1, e.V2)
			}
			gated++
		}
	}
	if gated != 1 {
		t.Errorf("A=common traced %d prune events, want 1", gated)
	}
	if res := core.Mine(d, core.Config{SkipMeaningfulFilter: true}); !has(res.Contrasts) {
		t.Error("sdadcs did not emit A=common")
	}
}
