// Package stucco implements STUCCO-style categorical contrast set mining
// (Bay & Pazzani 2001), the foundation the paper builds on for itemsets
// with only categorical attributes (§3, §4.3):
//
//   - levelwise candidate generation over attribute=value items,
//   - a contrast is an itemset whose largest support difference exceeds δ
//     (Eq. 2) and whose group association is chi-square significant at the
//     Bonferroni-adjusted level (Eq. 3), with every expected cell of the
//     test at least 5,
//   - pruning by minimum deviation size, expected cell count < 5, and the
//     chi-square optimistic-estimate bound.
//
// It also serves as the shared combination search run over pre-binned data
// for the entropy and MVD baselines: after global discretization each bin
// is just a categorical value.
//
// The search is core.Mine over the categorical attributes with STUCCO's
// three pruning rules, its emission gate (core.Config.ExpectedCountGate)
// and no meaningfulness filter: one levelwise loop, counting kernel and
// set of metrics and trace events serves every levelwise search.
package stucco

import (
	"context"
	"fmt"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// TopKUnbounded disables the top-k result bound: every admissible contrast
// is retained (the differential oracle mines with this sentinel).
const TopKUnbounded = core.TopKUnbounded

// Config controls a mining run.
type Config struct {
	// Alpha is the global significance level (default 0.05); it is
	// Bonferroni-adjusted per level during the search.
	Alpha float64
	// Delta is the minimum support difference for a large contrast and the
	// minimum support for the deviation-size pruning (default 0.1).
	Delta float64
	// MaxDepth bounds the itemset size (default 5, the paper's setting).
	MaxDepth int
	// TopK bounds the result list (default 100). TopKUnbounded (-1)
	// disables the bound entirely.
	TopK int
	// Measure scores contrasts for the top-k list (default SupportDiff).
	Measure pattern.Measure
	// Attrs restricts the search to these attribute indices; nil means all
	// categorical attributes. Continuous indices are ignored.
	Attrs []int
	// Workers > 1 tests each level's candidates in parallel; results
	// are merged deterministically, so any worker count is bit-identical to
	// the serial search.
	Workers int
	// Metrics and Trace, when non-nil, receive core.Mine's
	// instrumentation and decision events (core.Config.Metrics, Trace).
	Metrics *metrics.Recorder
	Trace   *trace.Tracer
}

// defaults resolves the zero fields CanonicalKey reads; core.Mine
// resolves the same defaults itself.
func (c *Config) defaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Delta == 0 {
		c.Delta = 0.1
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = core.DefaultMaxDepth
	}
	if c.TopK == 0 {
		c.TopK = 100
	}
	if c.TopK == TopKUnbounded {
		c.TopK = 0 // the key spells an unbounded list topk=0
	}
}

// CanonicalKey serializes the result-affecting fields with defaults
// resolved, in a fixed order. Workers and the observability sinks are
// left out: they never change the result.
func (c Config) CanonicalKey() string {
	c.defaults()
	return fmt.Sprintf("alpha=%.17g;delta=%.17g;depth=%d;topk=%d;measure=%s;attrs=%s",
		c.Alpha, c.Delta, c.MaxDepth, c.TopK, c.Measure, dataset.AttrsKey(c.Attrs))
}

// Mine runs the levelwise search and returns the top contrasts sorted by
// descending score.
func Mine(d *dataset.Dataset, cfg Config) core.Result {
	res, _ := MineContext(context.Background(), d, cfg)
	return res
}

// MineContext is Mine with cancellation: it returns the contrasts found
// so far plus ctx.Err() when canceled.
func MineContext(ctx context.Context, d *dataset.Dataset, cfg Config) (core.Result, error) {
	attrs := cfg.Attrs
	if attrs == nil {
		attrs = d.CategoricalAttrs()
	}
	// Non-nil even when empty: core reads a nil Attrs as every attribute.
	cat := make([]int, 0, len(attrs))
	for _, a := range attrs {
		if d.Attr(a).Kind == dataset.Categorical {
			cat = append(cat, a)
		}
	}
	return core.MineContext(ctx, d, core.Config{
		Alpha:                cfg.Alpha,
		Delta:                cfg.Delta,
		MaxDepth:             cfg.MaxDepth,
		TopK:                 cfg.TopK,
		Measure:              cfg.Measure,
		Pruning:              &core.Pruning{MinDeviation: true, ExpectedCount: true, ChiSquareOE: true},
		SkipMeaningfulFilter: true,
		ExpectedCountGate:    true,
		Attrs:                cat,
		Workers:              cfg.Workers,
		Metrics:              cfg.Metrics,
		Trace:                cfg.Trace,
	})
}
