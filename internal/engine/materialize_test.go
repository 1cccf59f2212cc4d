package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/pattern"
)

// TestMaterializedSubsetMatchesFreshBuild: dataset.Materialize keeps the
// source's categorical domains, so a subset can declare a code that none
// of its rows holds. Such a code is not a candidate: mining the subset
// must report what mining a fresh build of the same rows reports — the
// same contrasts with the same per-group counts, and the same Stats.
// Codes differ between the two codings, so itemsets are matched by name.
func TestMaterializedSubsetMatchesFreshBuild(t *testing.T) {
	const n = 800
	rng := rand.New(rand.NewSource(5))
	a, b, x, g := make([]string, n), make([]string, n), make([]float64, n), make([]string, n)
	var keep []int
	for r := 0; r < n; r++ {
		a[r] = []string{"a0", "a1", "a2"}[rng.Intn(3)]
		if r%40 == 0 {
			a[r] = "rare"
		}
		b[r] = []string{"b0", "b1", "b2"}[rng.Intn(3)]
		x[r] = rng.Float64()
		p := 0.3
		if a[r] == "a0" {
			p += 0.3
		}
		if x[r] > 0.6 {
			p += 0.25
		}
		g[r] = "q"
		if rng.Float64() < p {
			g[r] = "p"
		}
		if a[r] != "rare" {
			keep = append(keep, r)
		}
	}
	src := dataset.NewBuilder("src").
		AddCategorical("A", a).AddCategorical("B", b).AddContinuous("X", x).
		SetGroups(g).MustBuild()
	sub := dataset.Materialize(src.Restrict(keep))
	pick := func(col []string) []string {
		out := make([]string, len(keep))
		for i, r := range keep {
			out[i] = col[r]
		}
		return out
	}
	xs := make([]float64, len(keep))
	for i, r := range keep {
		xs[i] = x[r]
	}
	fresh := dataset.NewBuilder("fresh").
		AddCategorical("A", pick(a)).AddCategorical("B", pick(b)).AddContinuous("X", xs).
		SetGroups(pick(g)).MustBuild()
	if len(sub.Domain(0)) != 4 || len(fresh.Domain(0)) != 3 {
		t.Fatalf("A's domain: subset %d codes, fresh %d; want 4 and 3", len(sub.Domain(0)), len(fresh.Domain(0)))
	}

	for _, alg := range []string{"sdadcs", "stucco"} {
		cfg := engine.Config{Algorithm: alg, MaxDepth: 3, TopK: engine.TopKUnbounded}
		got, err := engine.Mine(sub, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Mine(fresh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Contrasts) == 0 {
			t.Fatalf("%s: no contrasts on the fresh build", alg)
		}
		if got.Stats != want.Stats {
			t.Errorf("%s: subset stats %+v, fresh build %+v", alg, got.Stats, want.Stats)
		}
		gs, ws := byName(sub, got.Contrasts), byName(fresh, want.Contrasts)
		if len(gs) != len(ws) {
			t.Errorf("%s: %d contrasts on the subset, %d on the fresh build", alg, len(gs), len(ws))
		}
		for name, w := range ws {
			if gs[name] != w {
				t.Errorf("%s: %s: subset %q, fresh build %q", alg, name, gs[name], w)
			}
		}
	}
}

// byName renders each contrast's per-group counts and score bits under
// its itemset's name, with groups named too.
func byName(d *dataset.Dataset, cs []pattern.Contrast) map[string]string {
	out := make(map[string]string, len(cs))
	for _, c := range cs {
		counts := map[string]int{}
		for gi, v := range c.Supports.Count {
			counts[d.GroupName(gi)] = v
		}
		out[c.Set.Format(d)] = fmt.Sprintf("%v score=%016x", counts, math.Float64bits(c.Score))
	}
	return out
}
