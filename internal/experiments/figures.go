package experiments

import (
	"fmt"
	"math"

	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/pattern"
)

// Figure2Result reproduces §4.4 / Figure 2: the bins SDAD-CS produces on a
// 1-D two-group mixture, before-merge split count vs. final merged bins.
type Figure2Result struct {
	Contrasts []pattern.Contrast
	Merges    int
	Table     Table
}

// Figure2 runs the discretization example.
func Figure2(opts Options) Figure2Result {
	opts.defaults()
	d := datagen.Figure2(opts.Seed, opts.scaleRows(2000))
	res := core.Mine(d, core.Config{
		Measure: pattern.SurprisingMeasure,
		TopK:    opts.TopK,
	})
	t := Table{
		Title:  "Figure 2: split-then-merge discretization of X",
		Header: []string{"bin", "supp(A)", "supp(B)", "PR"},
	}
	gA := d.GroupIndex("A")
	gB := d.GroupIndex("B")
	for _, c := range res.Contrasts {
		t.Rows = append(t.Rows, []string{
			c.Set.Format(d),
			fmtF(c.Supports.Supp(gA)),
			fmtF(c.Supports.Supp(gB)),
			fmtF(c.Supports.PR()),
		})
	}
	return Figure2Result{
		Contrasts: res.Contrasts,
		Merges:    res.Stats.MergeOps,
		Table:     t,
	}
}

// Figure3Result holds, per simulated dataset and per algorithm, the
// contrasts found — the qualitative bin-boundary comparison of §5.1–§5.4.
type Figure3Result struct {
	// Runs[datasetIndex][algorithm] — dataset index 0..3 for Simulated
	// Datasets 1..4.
	Runs   [4]map[string]AlgorithmRun
	Tables []Table
}

// Figure3 runs all four algorithms on the four simulated datasets.
func Figure3(opts Options) Figure3Result {
	opts.defaults()
	gens := []func(int64, int) *dataset.Dataset{
		datagen.Simulated1, datagen.Simulated2, datagen.Simulated3, datagen.Simulated4,
	}
	var out Figure3Result
	for i, gen := range gens {
		d := gen(opts.Seed+int64(i), opts.scaleRows(2000))
		runs := map[string]AlgorithmRun{}
		// SDAD-CS with the Surprising Measure, as in the qualitative
		// experiments.
		runs["SDAD-CS"] = run("SDAD-CS", d, engine.Config{Measure: pattern.SurprisingMeasure}, opts)
		runs["MVD"] = run("MVD", d, engine.Config{Algorithm: "mvd"}, opts)
		runs["Entropy"] = run("Entropy", d, engine.Config{Algorithm: "entropy"}, opts)
		runs["Cortana-Interval"] = run("Cortana-Interval", d, engine.Config{Algorithm: "subgroup"}, opts)
		out.Runs[i] = runs

		t := Table{
			Title:  fmt.Sprintf("Figure 3%c: Simulated Dataset %d — contrasts per algorithm", 'a'+i, i+1),
			Header: []string{"algorithm", "#contrasts", "top contrast", "top score"},
		}
		for _, name := range []string{"SDAD-CS", "MVD", "Entropy", "Cortana-Interval"} {
			r := runs[name]
			top := "(none)"
			score := 0.0
			if len(r.Contrasts) > 0 {
				top = r.Contrasts[0].Set.Format(r.Data)
				score = r.Contrasts[0].Score
			}
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprintf("%d", len(r.Contrasts)), top, fmtF(score),
			})
		}
		out.Tables = append(out.Tables, t)
	}
	return out
}

// Figure4Bin is one equal-frequency bin of Figure 4's histograms.
type Figure4Bin struct {
	Lo, Hi   float64
	SuppDoc  float64
	SuppBach float64
	PR       float64
}

// Figure4Result carries the two histogram series (age, hours-per-week).
type Figure4Result struct {
	Age    []Figure4Bin
	Hours  []Figure4Bin
	Tables []Table
}

// Figure4 reproduces the per-bin support and purity-ratio histograms on
// the Adult-like data.
func Figure4(opts Options) Figure4Result {
	opts.defaults()
	d := datagen.Adult(datagen.AdultConfig{
		Seed:      opts.Seed,
		Bachelors: opts.scaleRows(8025),
		Doctorate: opts.scaleRows(594),
	})
	var out Figure4Result
	out.Age = figure4Series(d, d.AttrIndex("age"), 10)
	out.Hours = figure4Series(d, d.AttrIndex("hours_per_week"), 10)
	for _, s := range []struct {
		name string
		bins []Figure4Bin
	}{{"Age", out.Age}, {"Hours-per-week", out.Hours}} {
		t := Table{
			Title:  "Figure 4: " + s.name + " — equal-frequency bin supports and purity ratio",
			Header: []string{"bin", "supp(Doctorate)", "supp(Bachelors)", "PR", "Doc | Bach"},
		}
		max := 0.0
		for _, b := range s.bins {
			max = seriesMax(max, b.SuppDoc, b.SuppBach)
		}
		for _, b := range s.bins {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("(%.0f, %.0f]", b.Lo, b.Hi),
				fmtF(b.SuppDoc), fmtF(b.SuppBach), fmtF(b.PR),
				fmt.Sprintf("%-12s|%s", bar(b.SuppDoc, max, 12), bar(b.SuppBach, max, 12)),
			})
		}
		out.Tables = append(out.Tables, t)
	}
	return out
}

// figure4Series computes per-bin group supports and PR over nBins
// equal-frequency bins of one attribute.
func figure4Series(d *dataset.Dataset, attr, nBins int) []Figure4Bin {
	doc := d.GroupIndex("Doctorate")
	bach := d.GroupIndex("Bachelors")
	sizes := d.GroupSizes()
	var bins []Figure4Bin
	prev := math.Inf(-1)
	for b := 1; b <= nBins; b++ {
		hi := d.All().Quantile(attr, float64(b)/float64(nBins))
		if b == nBins {
			_, hi = d.All().MinMax(attr)
		}
		if hi <= prev {
			continue
		}
		counts := d.All().FilterRange(attr, prev, hi).GroupCounts()
		sup := pattern.CountsToSupports(counts, sizes)
		bins = append(bins, Figure4Bin{
			Lo:       prev,
			Hi:       hi,
			SuppDoc:  sup.Supp(doc),
			SuppBach: sup.Supp(bach),
			PR:       sup.PR(),
		})
		prev = hi
	}
	return bins
}
