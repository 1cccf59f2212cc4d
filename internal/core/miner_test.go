package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

func TestMineFigure2(t *testing.T) {
	// §4.4's example: 2% group A concentrated in (62, 75]. The miner must
	// isolate a region around A's range with a high purity ratio.
	d := datagen.Figure2(1, 2000)
	res := Mine(d, Config{Measure: pattern.SurprisingMeasure})
	if len(res.Contrasts) == 0 {
		t.Fatal("no contrasts on Figure 2 data")
	}
	gA := d.GroupIndex("A")
	found := false
	for _, c := range res.Contrasts {
		it, ok := c.Set.ItemOn(0)
		if !ok {
			continue
		}
		// A region that contains most of A and is strongly A-dominant.
		// (Median-based splits land near, not exactly on, (62, 75], so a
		// thin slice of A may fall outside the reported region.)
		if c.Supports.Supp(gA) > 0.6 && c.Supports.PR() > 0.7 &&
			it.Range.Lo >= 40 && it.Range.Hi <= 100 {
			found = true
		}
	}
	if !found {
		for _, c := range res.Contrasts {
			t.Logf("contrast: %s score=%.3f", c.Format(d), c.Score)
		}
		t.Error("no contrast isolating group A's range")
	}
}

func TestMineSimulated1PureSplit(t *testing.T) {
	// Figure 3a: the only meaningful split is Attribute1 at 0.5 (PR = 1 on
	// both sides); pure-space pruning must prevent 2-attribute contrasts.
	d := datagen.Simulated1(2, 2000)
	res := Mine(d, Config{Measure: pattern.SurprisingMeasure})
	if len(res.Contrasts) == 0 {
		t.Fatal("no contrasts")
	}
	a1 := d.AttrIndex("Attribute1")
	top := res.Contrasts[0]
	it, ok := top.Set.ItemOn(a1)
	if !ok || top.Set.Len() != 1 {
		t.Fatalf("top contrast should be univariate on Attribute1, got %s", top.Set.Format(d))
	}
	if math.Abs(it.Range.Lo-0.5) > 0.05 && math.Abs(it.Range.Hi-0.5) > 0.05 {
		t.Errorf("split not near 0.5: %v", it.Range)
	}
	if top.Supports.PR() < 0.99 {
		t.Errorf("top PR = %v, want 1", top.Supports.PR())
	}
	// §5.1: the univariate boundary is the story. The empirical median is
	// not exactly the true boundary 0.5, so the near-boundary band is not
	// perfectly pure and a correlated 2-attribute contrast can squeak in —
	// but never above the univariate one.
	for _, c := range res.Contrasts {
		if c.Set.Len() > 1 && c.Score >= top.Score {
			t.Errorf("multivariate contrast outranks the pure split: %s (%.3f vs %.3f)",
				c.Set.Format(d), c.Score, top.Score)
		}
	}
}

func TestMineSimulated2MultivariateOnly(t *testing.T) {
	// Figure 3b: X-shaped Gaussians. No univariate rule exists; SDAD-CS
	// must find joint boxes ("no rule found when we run SDAD-CS on each
	// attribute individually").
	d := datagen.Simulated2(3, 3000)
	res := Mine(d, Config{Measure: pattern.SurprisingMeasure})
	if len(res.Contrasts) == 0 {
		t.Fatal("no contrasts on the X data")
	}
	sawJoint := false
	for _, c := range res.Contrasts {
		if c.Set.Len() == 1 && c.Score > 0.3 {
			t.Errorf("strong univariate contrast should not exist: %s score=%v",
				c.Format(d), c.Score)
		}
		if c.Set.Len() == 2 {
			sawJoint = true
		}
	}
	if !sawJoint {
		t.Error("no joint (2-attribute) contrast found on interacting data")
	}
}

func TestMineSimulated3LevelOneOnly(t *testing.T) {
	// Figure 3c: structure only on Attribute1 at level 1; higher-level
	// contrasts are meaningless and must be filtered or pruned.
	d := datagen.Simulated3(4, 2000)
	res := Mine(d, Config{Measure: pattern.SurprisingMeasure})
	if len(res.Contrasts) == 0 {
		t.Fatal("no contrasts")
	}
	for _, c := range res.Contrasts {
		if c.Set.Len() > 1 {
			t.Errorf("level-2 contrast should be pruned: %s", c.Set.Format(d))
		}
	}
}

func TestMineCategoricalOnly(t *testing.T) {
	// Pure categorical data exercises the STUCCO path inside the miner.
	n := 1000
	a := make([]string, n)
	g := make([]string, n)
	for i := range a {
		if i%2 == 0 {
			g[i] = "X"
			a[i] = []string{"hot", "hot", "hot", "cold"}[i/2%4]
		} else {
			g[i] = "Y"
			a[i] = []string{"cold", "cold", "cold", "hot"}[i/2%4]
		}
	}
	d := dataset.NewBuilder("cat").AddCategorical("a", a).SetGroups(g).MustBuild()
	res := Mine(d, Config{})
	if len(res.Contrasts) == 0 {
		t.Fatal("no categorical contrasts")
	}
	if res.Contrasts[0].Score < 0.4 {
		t.Errorf("top score = %v, want ~0.5", res.Contrasts[0].Score)
	}
}

func TestMineMixedData(t *testing.T) {
	// Adult-like data: mixed categorical/continuous mining end to end.
	d := datagen.Adult(datagen.AdultConfig{Seed: 5, Bachelors: 2000, Doctorate: 400})
	res := Mine(d, Config{
		Measure:  pattern.SurprisingMeasure,
		MaxDepth: 2,
		Attrs: []int{
			d.AttrIndex("age"), d.AttrIndex("hours_per_week"), d.AttrIndex("occupation"),
		},
	})
	if len(res.Contrasts) == 0 {
		t.Fatal("no contrasts on Adult-like data")
	}
	// The young-age, Bachelors-dominated region must be found (the paper's
	// Table 1 row 1; merging may widen the bin slightly past age 26).
	bach := d.GroupIndex("Bachelors")
	doc := d.GroupIndex("Doctorate")
	foundYoung := false
	for _, c := range res.Contrasts {
		it, ok := c.Set.ItemOn(d.AttrIndex("age"))
		if ok && c.Set.Len() == 1 && it.Range.Hi <= 35 &&
			c.Supports.Supp(doc) < 0.1 && c.Supports.Supp(bach) > 0.2 {
			foundYoung = true
		}
	}
	if !foundYoung {
		for _, c := range res.Contrasts[:minInt(10, len(res.Contrasts))] {
			t.Logf("contrast: %s score=%.3f", c.Format(d), c.Score)
		}
		t.Error("young-Bachelors region not found")
	}
	if res.Stats.PartitionsEvaluated == 0 || res.Stats.SDADCalls == 0 {
		t.Error("stats counters not wired")
	}
}

func TestMineNPEvaluatesMore(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 6, Bachelors: 1500, Doctorate: 300})
	cfg := Config{MaxDepth: 2, Attrs: []int{
		d.AttrIndex("age"), d.AttrIndex("hours_per_week"), d.AttrIndex("sex"),
	}}
	full := Mine(d, cfg)
	np := Mine(d, cfg.NP())
	if np.Stats.PartitionsEvaluated < full.Stats.PartitionsEvaluated {
		t.Errorf("NP evaluated %d partitions, full pruning %d — NP should do at least as much work",
			np.Stats.PartitionsEvaluated, full.Stats.PartitionsEvaluated)
	}
	if np.Meaning != nil {
		t.Error("NP should not classify meaningfulness")
	}
	if np.Stats.FilteredOut != 0 {
		t.Error("NP should not filter")
	}
}

func TestMineParallelDeterministic(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 7, Bachelors: 1000, Doctorate: 200})
	cfg := Config{MaxDepth: 2, Measure: pattern.SurprisingMeasure, Attrs: []int{
		d.AttrIndex("age"), d.AttrIndex("hours_per_week"), d.AttrIndex("occupation"),
	}}
	serial := Mine(d, cfg)
	cfg.Workers = 4
	parallel := Mine(d, cfg)
	if len(serial.Contrasts) != len(parallel.Contrasts) {
		t.Fatalf("serial %d vs parallel %d contrasts",
			len(serial.Contrasts), len(parallel.Contrasts))
	}
	for i := range serial.Contrasts {
		if serial.Contrasts[i].Set.Key() != parallel.Contrasts[i].Set.Key() {
			t.Fatalf("contrast %d differs between serial and parallel", i)
		}
		if serial.Contrasts[i].Score != parallel.Contrasts[i].Score {
			t.Fatalf("score %d differs between serial and parallel", i)
		}
	}
	if serial.Stats.PartitionsEvaluated != parallel.Stats.PartitionsEvaluated {
		t.Errorf("partition counts differ: %d vs %d",
			serial.Stats.PartitionsEvaluated, parallel.Stats.PartitionsEvaluated)
	}
}

func TestMineWithMissingValues(t *testing.T) {
	// 10% missing readings must neither crash the miner nor destroy the
	// planted pattern; supports of mined boxes must still match a direct
	// recount (missing rows match no interval on that attribute).
	rng := rand.New(rand.NewSource(21))
	n := 2000
	x := make([]float64, n)
	g := make([]string, n)
	for i := range x {
		if i%2 == 0 {
			g[i] = "G1"
			x[i] = rng.NormFloat64() + 2
		} else {
			g[i] = "G2"
			x[i] = rng.NormFloat64()
		}
		if rng.Float64() < 0.10 {
			x[i] = math.NaN()
		}
	}
	d := dataset.NewBuilder("missing").
		AddContinuous("x", x).
		SetGroups(g).
		MustBuild()
	res := Mine(d, Config{MaxDepth: 1})
	if len(res.Contrasts) == 0 {
		t.Fatal("no contrasts despite a strong planted shift")
	}
	if res.Contrasts[0].Score < 0.5 {
		t.Errorf("top score = %v, want strong", res.Contrasts[0].Score)
	}
	for _, c := range res.Contrasts {
		direct := pattern.SupportsOf(c.Set, d.All())
		for gi := range direct.Count {
			if direct.Count[gi] != c.Supports.Count[gi] {
				t.Errorf("%s: stored %v direct %v", c.Set.Key(), c.Supports.Count, direct.Count)
			}
		}
	}
}

func TestMineContextCancellation(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 13, Bachelors: 1500, Doctorate: 300})
	cfg := Config{MaxDepth: 3}

	// An already-cancelled context stops before level 1: no contrasts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MineContext(ctx, d, cfg)
	if err == nil {
		t.Fatal("cancelled context should report an error")
	}
	if len(res.Contrasts) != 0 {
		t.Errorf("cancelled-before-start run found %d contrasts", len(res.Contrasts))
	}

	// A live context behaves like Mine.
	res2, err := MineContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := Mine(d, cfg)
	if len(res2.Contrasts) != len(plain.Contrasts) {
		t.Error("MineContext with background context differs from Mine")
	}
}

func TestMineDepthOne(t *testing.T) {
	d := datagen.Simulated4(8, 1500)
	res := Mine(d, Config{MaxDepth: 1})
	for _, c := range res.Contrasts {
		if c.Set.Len() > 1 {
			t.Errorf("depth-1 mining produced %d-item contrast", c.Set.Len())
		}
	}
}

func TestMineSupportsMatchRecount(t *testing.T) {
	d := datagen.Simulated1(9, 1000)
	res := Mine(d, Config{})
	for _, c := range res.Contrasts {
		direct := pattern.SupportsOf(c.Set, d.All())
		for g := range direct.Count {
			if direct.Count[g] != c.Supports.Count[g] {
				t.Errorf("%s: stored count %v, direct %v",
					c.Set.Format(d), c.Supports.Count, direct.Count)
				break
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
