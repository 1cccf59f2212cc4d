package core

import (
	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stucco"
	"sdadcs/internal/topk"
)

// JointDiscretize runs Algorithm 1 directly on one set of continuous
// attributes (optionally under a categorical context), without the
// combination search: it returns the contrast boxes SDAD-CS carves out of
// the joint space, after bottom-up merging. This is the paper's
// discretizer exposed as a standalone tool — useful when the caller
// already knows which attributes interact, or wants the adaptive bins
// themselves rather than a full pattern search.
//
// The context itemset restricts the rows considered (pass the empty
// itemset for the whole dataset); supports are still reported against the
// full group sizes, as everywhere in the paper.
func JointDiscretize(d *dataset.Dataset, contAttrs []int, context pattern.Itemset, cfg Config) []pattern.Contrast {
	cfg.defaults()
	for _, attr := range contAttrs {
		if d.Attr(attr).Kind != dataset.Continuous {
			panic("core: JointDiscretize requires continuous attributes")
		}
	}
	ix, _ := bitmap.Shared(d)
	list := topk.New(cfg.TopK, cfg.scoreFloor()).WithRecorder(cfg.Metrics).WithTracer(cfg.Trace)
	run := &sdadRun{
		d:         d,
		cfg:       &cfg,
		prune:     cfg.pruning(),
		contAttrs: contAttrs,
		alpha:     cfg.Alpha,
		crit:      chiSquareCrit(cfg.Alpha, d.NumGroups()),
		threshold: cfg.scoreFloor(),
		memo:      newSupportMemo(d, ix),
		scratch:   new(sdadScratch),
		table:     make(pruneTable),
		sizes:     d.GroupSizes(),
		totalRows: d.Rows(),
		rec:       cfg.Metrics,
		tr:        cfg.Trace,
	}
	for _, c := range run.run(context, context.Cover(d.All())) {
		list.Add(c)
	}
	return list.Contrasts()
}

// CutPoints extracts, per attribute, the sorted distinct finite bin
// boundaries appearing in a contrast list — the discretization induced by
// the mined boxes, in the same form the global binning baselines produce.
// It lets SDAD-CS drive the same downstream pipelines (e.g.
// dataset.Discretized + stucco.Mine) as MVD or entropy binning.
func CutPoints(cs []pattern.Contrast) map[int][]float64 {
	seen := map[int]map[float64]struct{}{}
	add := func(attr int, v float64) {
		if v != v || v < -maxFinite || v > maxFinite {
			return // skip NaN / ±Inf
		}
		if seen[attr] == nil {
			seen[attr] = map[float64]struct{}{}
		}
		seen[attr][v] = struct{}{}
	}
	for _, c := range cs {
		for _, it := range c.Set.Items() {
			if it.Kind != dataset.Continuous {
				continue
			}
			add(it.Attr, it.Range.Lo)
			add(it.Attr, it.Range.Hi)
		}
	}
	out := make(map[int][]float64, len(seen))
	for attr, vals := range seen {
		cuts := make([]float64, 0, len(vals))
		for v := range vals {
			cuts = append(cuts, v)
		}
		sortFloats(cuts)
		out[attr] = cuts
	}
	return out
}

const maxFinite = 1.7976931348623157e308

func sortFloats(v []float64) {
	// Insertion sort: cut-point lists are tiny and this avoids an import.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// MineWithBins discretizes the given continuous attributes with SDAD-CS's
// joint adaptive binning and then runs the shared categorical search over
// the binned dataset — the "SDAD-CS as a drop-in discretizer" pipeline,
// directly comparable to mvd.Mine and entropy.Mine.
func MineWithBins(d *dataset.Dataset, contAttrs []int, cfg Config, search stucco.Config) ([]pattern.Contrast, *dataset.Dataset) {
	boxes := JointDiscretize(d, contAttrs, pattern.NewItemset(), cfg)
	binned := dataset.Discretized(d, CutPoints(boxes))
	res := stucco.Mine(binned, search)
	return res.Contrasts, binned
}
