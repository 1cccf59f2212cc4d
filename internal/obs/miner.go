package obs

import (
	"strconv"

	"sdadcs/internal/metrics"
)

// MinerSeries is one miner instrumentation snapshot and the labels its
// samples carry (none for a single process-wide recorder; the algorithm
// for the service's per-algorithm totals).
type MinerSeries struct {
	Labels   []Label
	Snapshot metrics.Snapshot
}

// MinerFamilies flattens miner instrumentation snapshots into exposition
// families under the given metric-name prefix ("sdadcs_miner_"), one
// sample per series in each family. It is the Prometheus rendering of
// the same state the JSON snapshot serves: search-effort counters (one
// family per metrics.Counter), per-rule prune hits, per-level node
// counts, the node-evaluation latency histogram, the top-k threshold,
// and stream re-mine totals. No series, no families.
func MinerFamilies(prefix string, series ...MinerSeries) []Family {
	if len(series) == 0 {
		return nil
	}
	each := func(typ FamilyType, name, help string, value func(*metrics.Snapshot) float64) Family {
		f := Family{Name: prefix + name, Help: help, Type: typ}
		for i := range series {
			f.Samples = append(f.Samples, Sample{Labels: series[i].Labels, Value: value(&series[i].Snapshot)})
		}
		return f
	}
	levelSum := func(field func(metrics.LevelSnapshot) int64) func(*metrics.Snapshot) float64 {
		return func(s *metrics.Snapshot) float64 {
			var n int64
			for _, lv := range s.Levels {
				n += field(lv)
			}
			return float64(n)
		}
	}
	fams := []Family{
		each(TypeCounter, "nodes_total", "Frontier nodes evaluated across all levels.", levelSum(func(lv metrics.LevelSnapshot) int64 { return lv.Nodes })),
		each(TypeCounter, "contrasts_total", "Contrast candidates emitted by the search.", levelSum(func(lv metrics.LevelSnapshot) int64 { return lv.Contrasts })),
	}
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		fams = append(fams, each(TypeCounter, c.String()+"_total", c.Help(), func(s *metrics.Snapshot) float64 { return float64(s.Counter(c)) }))
	}
	fams = append(fams,
		each(TypeCounter, "threshold_updates_total", "Top-k admission-threshold changes.", func(s *metrics.Snapshot) float64 { return float64(s.ThresholdUpdates) }),
		each(TypeGauge, "threshold", "Current top-k admission threshold.", func(s *metrics.Snapshot) float64 { return s.Threshold }),
	)
	prune := Family{Name: prefix + "prune_hits_total", Help: "Pruning-rule firings, by rule.", Type: TypeCounter}
	levels := Family{Name: prefix + "level_nodes_total", Help: "Frontier nodes evaluated, by search level.", Type: TypeCounter}
	eval := Family{Name: prefix + "node_eval_seconds", Help: "Per-node evaluation latency.", Type: TypeHistogram}
	for _, ms := range series {
		for _, p := range ms.Snapshot.Prune {
			prune.Samples = append(prune.Samples, Sample{
				Labels: withLabel(ms.Labels, "rule", p.Rule),
				Value:  float64(p.Hits),
			})
		}
		for _, lv := range ms.Snapshot.Levels {
			levels.Samples = append(levels.Samples, Sample{
				Labels: withLabel(ms.Labels, "level", strconv.Itoa(lv.Level)),
				Value:  float64(lv.Nodes),
			})
		}
		eval.Samples = append(eval.Samples, HistogramSamples(ms.Labels, ms.Snapshot.NodeEval)...)
	}
	if len(prune.Samples) > 0 {
		fams = append(fams, prune)
	}
	if len(levels.Samples) > 0 {
		fams = append(fams, levels)
	}
	return append(fams, eval,
		each(TypeCounter, "remine_windows_total", "Stream windows re-mined.", func(s *metrics.Snapshot) float64 { return float64(s.Remine.Count) }),
		each(TypeCounter, "remine_seconds_total", "Cumulative stream re-mine wall time.", func(s *metrics.Snapshot) float64 { return float64(s.Remine.TotalNanos) / 1e9 }),
		each(TypeCounter, "trace_events_total", "Decision-trace events emitted.", func(s *metrics.Snapshot) float64 { return float64(s.TraceEvents) }),
		each(TypeCounter, "trace_dropped_total", "Decision-trace events dropped on ring overflow.", func(s *metrics.Snapshot) float64 { return float64(s.TraceDropped) }),
	)
}

// withLabel copies labels and appends one more.
func withLabel(labels []Label, name, value string) []Label {
	return append(append([]Label(nil), labels...), Label{Name: name, Value: value})
}
