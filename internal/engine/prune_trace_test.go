package engine_test

import (
	"fmt"
	"testing"

	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// TestMinDeviationTracesMaxSupport checks the statistic a traced
// min_deviation prune carries for the STUCCO-backed algorithms: V1 is the
// itemset's largest group support, the value the rule tests against δ,
// and it never exceeds V2 = δ. The planted value "even" covers 50 rows of
// each 500-row group, so it is pruned at support 0.1 against δ 0.1 while
// its support difference is 0.
func TestMinDeviationTracesMaxSupport(t *testing.T) {
	const rows = 1000
	cat := make([]string, rows)
	x := make([]float64, rows)
	groups := make([]string, rows)
	for r := range groups {
		groups[r] = []string{"A", "B"}[r%2]
		switch {
		case r < 100:
			cat[r] = "even"
		case r%2 == 0:
			cat[r] = "a-heavy"
		default:
			cat[r] = fmt.Sprint("b", r%7)
		}
		x[r] = float64(r%13) + float64(r%2)*5
	}
	d := dataset.NewBuilder("min-deviation").
		AddCategorical("c", cat).
		AddContinuous("x", x).
		SetGroups(groups).
		MustBuild()
	for _, alg := range []string{"stucco", "mvd", "entropy"} {
		res, err := engine.Mine(d, engine.Config{Algorithm: alg, Trace: trace.New(1 << 16)})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		data := d
		if res.Binned != nil {
			data = res.Binned
		}
		planted := false
		for _, e := range res.Trace.Events {
			if e.Kind != trace.KindPrune || e.Arg != metrics.PruneMinDeviation.String() {
				continue
			}
			set := e.Set
			sup := pattern.SupportsOf(set, data.All())
			max := 0.0
			for g := 0; g < sup.Groups(); g++ {
				if s := sup.Supp(g); s > max {
					max = s
				}
			}
			if e.V1 != max || e.V1 > e.V2 {
				t.Errorf("%s: min_deviation prune of %s traces %v against δ %v, want the largest group support %v (supports %v)",
					alg, set.Format(data), e.V1, e.V2, max, sup.Count)
			}
			planted = planted || set.Format(data) == "c = even"
		}
		if !planted {
			t.Errorf("%s: the planted value was not pruned by min_deviation", alg)
		}
	}
}
