package experiments

import (
	"fmt"

	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/pattern"
)

// adultData builds the Adult-like dataset at the options' scale.
func adultData(opts Options) *dataset.Dataset {
	return datagen.Adult(datagen.AdultConfig{
		Seed:      opts.Seed,
		Bachelors: opts.scaleRows(8025),
		Doctorate: opts.scaleRows(594),
	})
}

// Table1Result reproduces Table 1: the contrast sets found on the Adult
// data by the five algorithm variants, restricted to the age and
// hours-per-week attributes the paper's discussion focuses on.
type Table1Result struct {
	Runs  map[string]AlgorithmRun
	Table Table
}

// Table1 runs the five variants.
func Table1(opts Options) Table1Result {
	opts.defaults()
	d := adultData(opts)
	age := d.AttrIndex("age")
	hours := d.AttrIndex("hours_per_week")
	attrs := []int{age, hours}
	doc := d.GroupIndex("Doctorate")
	bach := d.GroupIndex("Bachelors")

	runs := map[string]AlgorithmRun{}
	runs["SDAD-CS (PR)"] = AlgorithmRun{
		Name: "SDAD-CS (PR)",
		// The paper's first Table 1 block optimizes the purity ratio
		// ("strong contrasts ... when we use PR as the interest measure
		// to optimize", §5.5.1) — under PR the purer joint age×hours box
		// beats its parent and is reported (row 5 of the paper's table).
		Contrasts: core.Mine(d, core.Config{
			Measure: pattern.PurityRatio, Attrs: attrs, MaxDepth: 2, TopK: opts.TopK,
		}).Contrasts,
		Data: d,
	}
	runs["SDAD-CS (Diff)"] = AlgorithmRun{
		Name: "SDAD-CS (Diff)",
		Contrasts: core.Mine(d, core.Config{
			Measure: pattern.SupportDiff, Attrs: attrs, MaxDepth: 2, TopK: opts.TopK,
		}).Contrasts,
		Data: d,
	}
	// The baselines cannot be attribute-restricted per-call in the same
	// way, so mine a projected dataset with just the two attributes.
	proj := projectContinuous(d, attrs)
	runs["Cortana-Interval"] = run("Cortana-Interval", proj, engine.Config{Algorithm: "subgroup"}, opts)
	runs["Entropy"] = run("Entropy", proj, engine.Config{Algorithm: "entropy"}, opts)
	runs["MVD"] = run("MVD", proj, engine.Config{Algorithm: "mvd"}, opts)

	t := Table{
		Title:  "Table 1: Contrast Sets for Adult (age, hours-per-week)",
		Header: []string{"algorithm", "contrast set", "supp(Doc)", "supp(Bach)"},
	}
	order := []string{"SDAD-CS (PR)", "SDAD-CS (Diff)", "Cortana-Interval", "Entropy", "MVD"}
	for _, name := range order {
		r := runs[name]
		limit := 6
		if len(r.Contrasts) < limit {
			limit = len(r.Contrasts)
		}
		for _, c := range r.Contrasts[:limit] {
			t.Rows = append(t.Rows, []string{
				name,
				c.Set.Format(r.Data),
				fmt2(c.Supports.Supp(doc)),
				fmt2(c.Supports.Supp(bach)),
			})
		}
	}
	return Table1Result{Runs: runs, Table: t}
}

// projectContinuous builds a dataset with only the listed continuous
// attributes (plus the groups), preserving group indices by name order.
func projectContinuous(d *dataset.Dataset, attrs []int) *dataset.Dataset {
	b := dataset.NewBuilder(d.Name() + "-proj")
	for _, attr := range attrs {
		col := make([]float64, d.Rows())
		copy(col, d.ContColumn(attr))
		b.AddContinuous(d.Attr(attr).Name, col)
	}
	groups := make([]string, d.Rows())
	for r := range groups {
		groups[r] = d.GroupName(d.Group(r))
	}
	b.SetGroups(groups)
	return b.MustBuild()
}

// Table2 renders the dataset inventory (paper Table 2) with the actual
// generated shapes, including the documented scale factors.
func Table2(opts Options) Table {
	opts.defaults()
	t := Table{
		Title:  "Table 2: Datasets",
		Header: []string{"dataset", "groups", "instances/group", "features/continuous"},
	}
	for _, spec := range datagen.Table2Specs(opts.Seed) {
		t.Rows = append(t.Rows, []string{
			spec.Name,
			spec.Group0 + "/" + spec.Group1,
			fmt.Sprintf("%d/%d", spec.N0, spec.N1),
			fmt.Sprintf("%d/%d", spec.Cat+spec.Cont, spec.Cont),
		})
	}
	return t
}

// Table3Result reproduces Table 3: the top Cortana contrasts on the Adult
// data at depth 2, the singleton itemsets needed for the expected-support
// computation, and the meaningfulness verdicts SDAD-CS assigns them.
type Table3Result struct {
	Top      []pattern.Contrast
	Meaning  []core.Meaningfulness
	Expected [][2]float64 // expected supports (Doc, Bach) per top contrast
	Table    Table
}

// Table3 runs the analysis.
func Table3(opts Options) Table3Result {
	opts.defaults()
	d := adultData(opts)
	doc := d.GroupIndex("Doctorate")
	bach := d.GroupIndex("Bachelors")

	res, _ := engine.Mine(d, engine.Config{Algorithm: "subgroup", MaxDepth: 2, TopK: opts.TopK})
	top := res.Contrasts
	if len(top) > 5 {
		top = top[:5]
	}
	meaning := core.Classify(d, res.Contrasts, 0.05)[:len(top)]

	t := Table{
		Title: "Table 3: Top Contrast Sets for Adult with Cortana — expected supports and verdicts",
		Header: []string{"contrast set", "supp(Doc)", "supp(Bach)",
			"exp(Doc)", "exp(Bach)", "verdict"},
	}
	expected := make([][2]float64, len(top))
	for i, c := range top {
		eDoc, eBach := expectedSupports(d, c, doc, bach)
		expected[i] = [2]float64{eDoc, eBach}
		verdict := "meaningful"
		switch {
		case meaning[i].Redundant:
			verdict = "redundant"
		case meaning[i].Unproductive:
			verdict = "unproductive"
		case meaning[i].NotIndependentlyProductive:
			verdict = "not independently productive"
		}
		t.Rows = append(t.Rows, []string{
			c.Set.Format(d),
			fmt2(c.Supports.Supp(doc)), fmt2(c.Supports.Supp(bach)),
			fmt2(eDoc), fmt2(eBach),
			verdict,
		})
	}
	return Table3Result{Top: top, Meaning: meaning, Expected: expected, Table: t}
}

// expectedSupports computes the per-group product of the items' individual
// supports — the independence expectation of Table 3's lower panel. For
// singleton itemsets it returns the observed supports.
func expectedSupports(d *dataset.Dataset, c pattern.Contrast, g0, g1 int) (e0, e1 float64) {
	e0, e1 = 1, 1
	for _, it := range c.Set.Items() {
		sup := pattern.SupportsOf(pattern.NewItemset(it), d.All())
		e0 *= sup.Supp(g0)
		e1 *= sup.Supp(g1)
	}
	return e0, e1
}
