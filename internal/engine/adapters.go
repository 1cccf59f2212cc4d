package engine

import (
	"context"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/entropy"
	"sdadcs/internal/mvd"
	"sdadcs/internal/stucco"
	"sdadcs/internal/subgroup"
)

func init() {
	Register(sdadcsMiner{})
	Register(stuccoMiner{})
	Register(mvdMiner{})
	Register(entropyMiner{})
	Register(subgroupMiner{})
}

// stuccoConfig maps the shared fields onto the STUCCO baseline's config
// (also the downstream search config for the mvd and entropy adapters).
func (c Config) stuccoConfig() stucco.Config {
	return stucco.Config{
		Alpha:    c.Alpha,
		Delta:    c.Delta,
		MaxDepth: c.MaxDepth,
		TopK:     c.TopK,
		Measure:  c.Measure,
		Attrs:    c.Attrs,
		Workers:  c.Workers,
		Metrics:  c.Metrics,
		Trace:    c.Trace,
	}
}

// mvdConfig maps the shared and MVD fields onto the discretizer's config.
func (c Config) mvdConfig() mvd.Config {
	return mvd.Config{
		Alpha:     c.Alpha,
		BinSize:   c.BinSize,
		MaxSweeps: c.MaxSweeps,
	}
}

// subgroupConfig maps the shared and subgroup fields onto the beam
// search's config.
func (c Config) subgroupConfig() subgroup.Config {
	return subgroup.Config{
		BeamWidth:   c.BeamWidth,
		Depth:       c.MaxDepth,
		Bins:        c.Bins,
		TopK:        c.TopK,
		MinCoverage: c.MinCoverage,
		MinQuality:  c.MinQuality,
		Measure:     c.Measure,
		Workers:     c.Workers,
		Metrics:     c.Metrics,
		Trace:       c.Trace,
	}
}

// sdadcsMiner adapts the paper's own search (internal/core).
type sdadcsMiner struct{}

func (sdadcsMiner) Name() string { return "sdadcs" }
func (sdadcsMiner) Description() string {
	return "the paper's SDAD-CS search: levelwise attribute combinations, statistically-guided median splits for continuous attributes, meaningfulness filter"
}

func (sdadcsMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	res, err := core.MineContext(ctx, d, cfg.coreConfig())
	return Result{
		Contrasts: res.Contrasts,
		Meaning:   res.Meaning,
		Stats:     res.Stats,
		Metrics:   res.Metrics,
		Trace:     res.Trace,
	}, err
}

func (sdadcsMiner) CanonicalKey(cfg Config) string {
	return "algorithm=sdadcs;" + cfg.coreConfig().CanonicalKey()
}

// stuccoMiner adapts the STUCCO baseline (categorical attributes only).
type stuccoMiner struct{}

func (stuccoMiner) Name() string { return "stucco" }
func (stuccoMiner) Description() string {
	return "STUCCO contrast-set mining over the categorical attributes (Bay & Pazzani 2001)"
}

func (stuccoMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	res, err := stucco.MineContext(ctx, d, cfg.stuccoConfig())
	return Result{
		Contrasts: res.Contrasts,
		Stats:     res.Stats,
		Metrics:   res.Metrics,
		Trace:     res.Trace,
	}, err
}

func (stuccoMiner) CanonicalKey(cfg Config) string {
	return "algorithm=stucco;" + cfg.stuccoConfig().CanonicalKey()
}

// mvdMiner adapts MVD discretization feeding the shared categorical
// search.
type mvdMiner struct{}

func (mvdMiner) Name() string { return "mvd" }
func (mvdMiner) Description() string {
	return "MVD multivariate discretization (Bay 2000) then the shared categorical search over the binned data"
}

func (mvdMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	disc := mvd.DiscretizeDataset(d, cfg.mvdConfig())
	binned := dataset.Discretized(d, disc.Cuts)
	res, err := stucco.MineContext(ctx, binned, cfg.stuccoConfig())
	res.Stats.PartitionsEvaluated += disc.PairsEvaluated
	return Result{
		Contrasts: res.Contrasts,
		Binned:    binned,
		Cuts:      disc.Cuts,
		Stats:     res.Stats,
		Metrics:   res.Metrics,
		Trace:     res.Trace,
	}, err
}

func (mvdMiner) CanonicalKey(cfg Config) string {
	return "algorithm=mvd;" + cfg.mvdConfig().BinningKey() + ";" + cfg.stuccoConfig().CanonicalKey()
}

// entropyMiner adapts entropy/MDLP discretization feeding the shared
// categorical search.
type entropyMiner struct{}

func (entropyMiner) Name() string { return "entropy" }
func (entropyMiner) Description() string {
	return "entropy/MDLP discretization (Fayyad & Irani 1993) then the shared categorical search over the binned data"
}

func (entropyMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	cuts := entropy.DiscretizeDataset(d)
	binned := dataset.Discretized(d, cuts)
	res, err := stucco.MineContext(ctx, binned, cfg.stuccoConfig())
	return Result{
		Contrasts: res.Contrasts,
		Binned:    binned,
		Cuts:      cuts,
		Stats:     res.Stats,
		Metrics:   res.Metrics,
		Trace:     res.Trace,
	}, err
}

func (entropyMiner) CanonicalKey(cfg Config) string {
	// The MDLP pass has no knobs; the key is the downstream search's.
	return "algorithm=entropy;" + cfg.stuccoConfig().CanonicalKey()
}

// subgroupMiner adapts Cortana-style subgroup discovery.
type subgroupMiner struct{}

func (subgroupMiner) Name() string { return "subgroup" }
func (subgroupMiner) Description() string {
	return "Cortana-style beam subgroup discovery with WRACC and interval conditions, pooled across groups"
}

func (subgroupMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	res, err := subgroup.MineContext(ctx, d, cfg.subgroupConfig())
	out := Result{
		Contrasts: res.Contrasts,
		Stats:     core.Stats{PartitionsEvaluated: res.Evaluated},
	}
	out.instrument(cfg)
	return out, err
}

func (subgroupMiner) CanonicalKey(cfg Config) string {
	return "algorithm=subgroup;" + cfg.subgroupConfig().CanonicalKey()
}
