package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
)

// TestMineMetricsSnapshot: an instrumented run reports per-level node
// counts and wall times, per-rule prune hits, and SDAD-CS work counters,
// and attaches the snapshot to the result.
func TestMineMetricsSnapshot(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 3, Bachelors: 800, Doctorate: 200})
	attrs := []int{d.AttrIndex("age"), d.AttrIndex("hours_per_week"), d.AttrIndex("occupation")}

	rec := metrics.New()
	res := Mine(d, Config{Attrs: attrs, MaxDepth: 2, Metrics: rec})

	if res.Metrics == nil {
		t.Fatal("Result.Metrics nil despite Config.Metrics")
	}
	s := res.Metrics
	if len(s.Levels) != 2 {
		t.Fatalf("levels = %d, want 2 (MaxDepth)", len(s.Levels))
	}
	for _, l := range s.Levels {
		if l.Nodes == 0 {
			t.Errorf("level %d has no nodes", l.Level)
		}
		if l.WallNanos <= 0 {
			t.Errorf("level %d wall time = %d, want > 0", l.Level, l.WallNanos)
		}
	}
	if s.Levels[0].Survivors == 0 {
		t.Error("level 1 has no survivors, yet level 2 ran")
	}
	if s.SDADCalls == 0 || s.Splits == 0 || s.BoxesExplored == 0 {
		t.Errorf("SDAD counters empty: calls=%d splits=%d boxes=%d",
			s.SDADCalls, s.Splits, s.BoxesExplored)
	}
	if s.TotalPruned() == 0 {
		t.Error("no prune hits recorded on a pruning-enabled run")
	}
	if s.NodeEval.Count == 0 {
		t.Error("node evaluation histogram empty")
	}
	// Stats.SDADCalls and the metrics counter must agree: they count the
	// same event from two observation points.
	if int64(res.Stats.SDADCalls) != s.SDADCalls {
		t.Errorf("Stats.SDADCalls=%d, metrics=%d", res.Stats.SDADCalls, s.SDADCalls)
	}
	if int64(res.Stats.MergeOps) != s.MergeOps {
		t.Errorf("Stats.MergeOps=%d, metrics=%d", res.Stats.MergeOps, s.MergeOps)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

// TestMineMetricsNeutral: instrumentation must not change mining results,
// for any worker count; a disabled run attaches no snapshot.
func TestMineMetricsNeutral(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 7, Bachelors: 600, Doctorate: 150})
	attrs := []int{d.AttrIndex("age"), d.AttrIndex("occupation"), d.AttrIndex("sex")}
	base := Mine(d, Config{Attrs: attrs, MaxDepth: 2})
	if base.Metrics != nil {
		t.Fatal("uninstrumented run attached a metrics snapshot")
	}
	for _, workers := range []int{1, 4} {
		res := Mine(d, Config{
			Attrs: attrs, MaxDepth: 2, Workers: workers,
			Metrics: metrics.New(),
		})
		if !reflect.DeepEqual(contrastKeys(base.Contrasts), contrastKeys(res.Contrasts)) {
			t.Errorf("workers=%d: instrumented contrasts differ from baseline", workers)
		}
		if res.Stats != base.Stats {
			t.Errorf("workers=%d: stats differ: %+v vs %+v", workers, res.Stats, base.Stats)
		}
	}
}

// TestMineMetricsParallelRace exercises the shared recorder from parallel
// per-level workers (meaningful under -race).
func TestMineMetricsParallelRace(t *testing.T) {
	d := datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: 5, Population: 800, Failed: 200, Features: 12,
	})
	rec := metrics.New()
	res := Mine(d, Config{MaxDepth: 2, Workers: 8, Metrics: rec})
	if res.Metrics == nil || res.Metrics.NodeEval.Count == 0 {
		t.Fatal("parallel instrumented run recorded nothing")
	}
	if got := res.Metrics.Levels[0].Workers; got != 8 {
		t.Errorf("level 1 worker fan-out = %d, want 8", got)
	}
}

// TestMineMetricsThresholdUpdates: a small top-k forces threshold motion,
// which the recorder must observe via the topk wiring.
func TestMineMetricsThresholdUpdates(t *testing.T) {
	d := datagen.Simulated2(4, 1200)
	rec := metrics.New()
	res := Mine(d, Config{TopK: 3, Metrics: rec, SkipMeaningfulFilter: true,
		Measure: pattern.SurprisingMeasure})
	if len(res.Contrasts) == 0 {
		t.Fatal("no contrasts")
	}
	if res.Metrics.ThresholdUpdates == 0 {
		t.Error("no threshold updates recorded with TopK=3")
	}
}

func contrastKeys(cs []pattern.Contrast) []string {
	keys := make([]string, len(cs))
	for i, c := range cs {
		keys[i] = c.Set.Key()
	}
	return keys
}
