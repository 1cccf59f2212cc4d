package experiments

import (
	"fmt"
	"time"

	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

// AblationRow is one configuration's cost and yield on the ablation
// workload.
type AblationRow struct {
	Variant    string
	Partitions int
	Pruned     int
	Contrasts  int
	Elapsed    time.Duration
}

// AblationResult quantifies the design choices DESIGN.md calls out: each
// §4.3 pruning strategy and the optimistic-estimate mode, all on the same
// Adult-like workload.
type AblationResult struct {
	Rows  []AblationRow
	Table Table
}

// Ablation runs every variant.
func Ablation(opts Options) AblationResult {
	opts.defaults()
	d := datagen.Adult(datagen.AdultConfig{
		Seed:      opts.Seed,
		Bachelors: opts.scaleRows(4000),
		Doctorate: opts.scaleRows(800),
	})
	attrs := []int{
		d.AttrIndex("age"), d.AttrIndex("hours_per_week"),
		d.AttrIndex("occupation"), d.AttrIndex("sex"),
	}
	base := core.Config{Attrs: attrs, MaxDepth: 2, TopK: opts.TopK, SkipMeaningfulFilter: true}

	variants := []struct {
		name string
		cfg  func() core.Config
	}{
		{"baseline (all pruning, paper OE, levelwise)", func() core.Config { return base }},
		{"no min-deviation", pruningOff(base, func(p *core.Pruning) { p.MinDeviation = false })},
		{"no expected-count", pruningOff(base, func(p *core.Pruning) { p.ExpectedCount = false })},
		{"no chi-square OE bound", pruningOff(base, func(p *core.Pruning) { p.ChiSquareOE = false })},
		{"no CLT redundancy", pruningOff(base, func(p *core.Pruning) { p.RedundancyCLT = false })},
		{"no pure-space", pruningOff(base, func(p *core.Pruning) { p.PureSpace = false })},
		{"no lookup table", pruningOff(base, func(p *core.Pruning) { p.LookupTable = false })},
		{"no pruning at all", pruningOff(base, func(p *core.Pruning) { *p = core.Pruning{} })},
		{"conservative OE", func() core.Config {
			c := base
			c.OEMode = core.OEModeConservative
			return c
		}},
	}

	var out AblationResult
	t := Table{
		Title:  "Ablation: pruning strategies and OE mode (Adult-like workload)",
		Header: []string{"variant", "partitions", "pruned", "contrasts", "time"},
	}
	for _, v := range variants {
		start := time.Now()
		res := core.Mine(d, v.cfg())
		row := AblationRow{
			Variant:    v.name,
			Partitions: res.Stats.PartitionsEvaluated,
			Pruned:     res.Stats.SpacesPruned,
			Contrasts:  len(res.Contrasts),
			Elapsed:    time.Since(start),
		}
		out.Rows = append(out.Rows, row)
		t.Rows = append(t.Rows, []string{
			row.Variant,
			fmt.Sprintf("%d", row.Partitions),
			fmt.Sprintf("%d", row.Pruned),
			fmt.Sprintf("%d", row.Contrasts),
			row.Elapsed.Round(time.Millisecond).String(),
		})
	}
	out.Table = t
	return out
}

// pruningOff builds a config constructor with one strategy toggled.
func pruningOff(base core.Config, mutate func(*core.Pruning)) func() core.Config {
	return func() core.Config {
		p := core.AllPruning()
		mutate(&p)
		c := base
		c.Pruning = &p
		return c
	}
}

var _ = dataset.Categorical
var _ = pattern.SupportDiff
