// Package engine unifies every miner in the repository behind one
// interface: a dataset plus one canonical Config goes in, contrasts plus
// search statistics, an optional binned view, and the shared
// metrics/trace instrumentation come out — whichever algorithm ran.
//
// The registered algorithms are the paper's own SDAD-CS search plus the
// four baselines of its experimental comparison (§5): STUCCO over the raw
// categorical attributes, MVD and entropy/MDLP discretization feeding the
// shared categorical search, and Cortana-style subgroup discovery. All of
// them ride the same substrate — the dataset-cached bitmap index, the
// deterministic per-level worker fan-out, the metrics recorder, the trace
// ring and the top-k list — so engine-level knobs (Workers, Metrics,
// Trace) mean the same thing everywhere.
//
// Each algorithm also defines a canonical key over the Config fields that
// affect its result, which is what the serving layer's result cache is
// addressed by: two configs that provably mine the same thing share a
// key.
package engine

import (
	"context"
	"sort"
	"time"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/obs"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// Miner is one registered algorithm.
type Miner interface {
	// Name is the wire name ("sdadcs", "stucco", "mvd", "entropy",
	// "subgroup") accepted by the serve API and cmd/contrast -algorithm.
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Mine runs the algorithm. A canceled ctx returns partial results
	// plus ctx.Err(). The returned Result has Algorithm filled in by the
	// dispatcher.
	Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error)
	// CanonicalKey serializes the result-affecting Config fields for this
	// algorithm, defaults resolved, in a fixed order. Fields the
	// algorithm ignores — and fields that provably do not change its
	// result (Workers, the observability sinks) — are excluded.
	CanonicalKey(cfg Config) string
}

// Result is a mining outcome, normalized across algorithms.
type Result struct {
	// Algorithm is the registered name of the miner that ran.
	Algorithm string
	// Contrasts are sorted by descending score.
	Contrasts []pattern.Contrast
	// Binned is the discretized dataset the contrasts' items refer to,
	// for algorithms that globally discretize first (mvd, entropy); nil
	// when the contrasts refer to the input dataset directly.
	Binned *dataset.Dataset
	// Cuts are the per-attribute cut points of the global discretization;
	// nil for algorithms that do not discretize.
	Cuts map[int][]float64
	// Meaning classifies each contrast (parallel to Contrasts) when the
	// meaningfulness filter ran; nil otherwise (only sdadcs fills it).
	Meaning []core.Meaningfulness
	// Stats normalizes search effort: PartitionsEvaluated counts
	// candidates whose supports were counted (plus, for mvd, the interval
	// pairs its merge loop tested), SpacesPruned counts candidates cut
	// with neither a contrast nor children (core.Stats.SpacesPruned; 0 for
	// subgroup).
	Stats core.Stats
	// Metrics is the instrumentation snapshot at the end of the run; nil
	// unless Config.Metrics was set.
	Metrics *metrics.Snapshot
	// Trace is the decision-event snapshot; nil unless Config.Trace was
	// set.
	Trace *trace.Trace
}

// instrument attaches the metrics/trace snapshots for an adapter whose
// underlying miner streams into the sinks but does not snapshot them
// (core snapshots itself; subgroup uses this).
func (r *Result) instrument(cfg Config) {
	if cfg.Trace != nil {
		cfg.Metrics.TraceVolume(cfg.Trace.Stats())
		r.Trace = cfg.Trace.Snapshot()
	}
	if cfg.Metrics != nil {
		s := cfg.Metrics.Snapshot()
		r.Metrics = &s
	}
}

var (
	registry = map[string]Miner{}
	order    []string
)

// Register adds an algorithm to the registry. Duplicate names panic —
// registration happens in this package's init only.
func Register(m Miner) {
	name := m.Name()
	if _, dup := registry[name]; dup {
		panic("engine: duplicate algorithm " + name)
	}
	registry[name] = m
	order = append(order, name)
	sort.Strings(order)
}

// Lookup resolves an algorithm by name.
func Lookup(name string) (Miner, bool) {
	m, ok := registry[name]
	return m, ok
}

// Algorithms returns the registered names, sorted — the vocabulary CLI
// flags and API fields advertise.
func Algorithms() []string {
	return append([]string(nil), order...)
}

// Mine dispatches to the configured algorithm (default "sdadcs").
func Mine(d *dataset.Dataset, cfg Config) (Result, error) {
	return MineContext(context.Background(), d, cfg)
}

// MineContext is Mine with cancellation. The config is validated first; a
// malformed config returns joined *core.FieldErrors and an empty Result.
//
// When ctx carries a logger (obs.WithLogger — the serving layer attaches
// one with the job's correlation IDs), the dispatch emits start/done
// records; with a bare context the path is log-free and costs nothing.
func MineContext(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	m, _ := Lookup(cfg.AlgorithmName()) // Validate guarantees the lookup
	log := obs.Log(ctx)
	log.InfoContext(ctx, "mine start",
		"algorithm", m.Name(),
		"dataset", d.Name(),
		"rows", d.Rows(),
		"attrs", d.NumAttrs())
	start := time.Now()
	res, err := m.Mine(ctx, d, cfg)
	res.Algorithm = m.Name()
	if err != nil {
		log.WarnContext(ctx, "mine done",
			"algorithm", m.Name(),
			"error", err.Error(),
			"duration_ms", float64(time.Since(start))/1e6)
	} else {
		log.InfoContext(ctx, "mine done",
			"algorithm", m.Name(),
			"contrasts", len(res.Contrasts),
			"partitions_evaluated", res.Stats.PartitionsEvaluated,
			"spaces_pruned", res.Stats.SpacesPruned,
			"duration_ms", float64(time.Since(start))/1e6)
	}
	return res, err
}
