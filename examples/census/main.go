// Census: compare SDAD-CS against the paper's baselines on a census-like
// mixed dataset (the Adult analysis of the paper's §5.5, Doctorate vs.
// Bachelors), focusing on how each algorithm bins age and hours-per-week.
//
// Run with:
//
//	go run ./examples/census
package main

import (
	"context"
	"fmt"

	"sdadcs"
	"sdadcs/internal/datagen"
)

func main() {
	// The paper's Adult experiment contrasts Doctorate and Bachelors
	// degree holders. datagen.Adult plants the same structure the paper
	// reports: a young Bachelors-only segment, Doctorates skewing old and
	// working long hours, and an age × hours interaction.
	d := datagen.Adult(datagen.AdultConfig{Seed: 7, Bachelors: 4000, Doctorate: 400})
	age := d.AttrIndex("age")
	hours := d.AttrIndex("hours_per_week")
	doc := d.GroupIndex("Doctorate")
	bach := d.GroupIndex("Bachelors")

	show := func(title string, cs []sdadcs.Contrast, data *sdadcs.Dataset, limit int) {
		fmt.Printf("--- %s ---\n", title)
		if len(cs) == 0 {
			fmt.Println("(no contrasts)")
		}
		if len(cs) < limit {
			limit = len(cs)
		}
		for _, c := range cs[:limit] {
			fmt.Printf("  %-70s Doc=%.2f Bach=%.2f\n",
				c.Set.Format(data), c.Supports.Supp(doc), c.Supports.Supp(bach))
		}
		fmt.Println()
	}

	// SDAD-CS, driven by the Surprising Measure as in the paper's
	// qualitative analysis, restricted to the two focus attributes.
	res := sdadcs.Mine(d, sdadcs.Config{
		Measure:  sdadcs.SurprisingMeasure,
		Attrs:    []int{age, hours},
		MaxDepth: 2,
	})
	show("SDAD-CS (Surprising Measure)", res.Contrasts, d, 8)

	// The same search optimizing raw support difference.
	resDiff := sdadcs.Mine(d, sdadcs.Config{
		Measure:  sdadcs.SupportDiff,
		Attrs:    []int{age, hours},
		MaxDepth: 2,
	})
	show("SDAD-CS (support difference)", resDiff.Contrasts, d, 6)

	// The baselines run through the unified engine API. Cortana-style
	// subgroup discovery (beam search, WRACC, intervals):
	sres, _ := sdadcs.MineWith(context.Background(), d,
		sdadcs.MinerConfig{Algorithm: "subgroup", MaxDepth: 2})
	show("Subgroup discovery (Cortana-style)", sres.Contrasts, d, 6)

	// Global pre-binning baselines: entropy (MDLP) and MVD.
	eres, _ := sdadcs.MineWith(context.Background(), d,
		sdadcs.MinerConfig{Algorithm: "entropy", MaxDepth: 2})
	show("Fayyad-Irani entropy binning", eres.Contrasts, eres.Binned, 6)
	mres, _ := sdadcs.MineWith(context.Background(), d,
		sdadcs.MinerConfig{Algorithm: "mvd", MaxDepth: 2})
	show("MVD binning", mres.Contrasts, mres.Binned, 6)

	fmt.Println("Note how the global binners fix one boundary per attribute for the")
	fmt.Println("whole dataset, while SDAD-CS re-bins age and hours jointly and finds")
	fmt.Println("the older-Doctorates-working-long-hours interaction as its own pattern.")
}
