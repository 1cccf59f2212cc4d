package engine_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sdadcs/internal/engine"
	"sdadcs/internal/metrics"
	"sdadcs/internal/oracle"
	"sdadcs/internal/trace"
)

const baselineGoldenPath = "testdata/baseline_instrumentation.golden"

// baselineGoldenSeeds covers every oracle shape once.
const baselineGoldenSeeds = 6

// TestBaselineInstrumentationGolden pins what the four baselines report
// besides their contrasts: the contrasts themselves (bits of score, χ²
// and p, exact counts), the normalized Stats, the metrics snapshot's
// counters, per-rule prune hits and per-level node, survivor and contrast
// counts, and every trace event except its sequence number, timestamp,
// worker and the wall time a level span carries in V3. Each case mines a
// freshly generated dataset, so the index-build counters do not depend on
// case order, at Workers 1 and 8. Everything but the events must digest
// identically at both worker counts; parallel level workers interleave
// their events, so the Workers 8 trace must hold the Workers 1 event lines
// as a multiset. The file holds the Workers 1 run. The subgroup cases
// narrow the beam and the interval ladder so that its per-candidate node
// events stay a small file. Regenerate with -update only for a deliberate
// change of what the baselines record.
func TestBaselineInstrumentationGolden(t *testing.T) {
	var got bytes.Buffer
	for _, alg := range []string{"stucco", "mvd", "entropy", "subgroup"} {
		for seed := int64(0); seed < baselineGoldenSeeds; seed++ {
			var digests [2]string
			var events [2][]string
			for i, workers := range []int{1, 8} {
				res, err := engine.Mine(oracle.Generate(seed), engine.Config{
					Algorithm: alg,
					BinSize:   10, // see TestGoldenEngineNeutralKnobs
					BeamWidth: 10,
					Bins:      4,
					Workers:   workers,
					Metrics:   metrics.New(),
					Trace:     trace.New(1 << 20),
				})
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", alg, seed, workers, err)
				}
				if res.Trace.Dropped != 0 {
					t.Fatalf("%s seed %d workers %d: %d trace events dropped", alg, seed, workers, res.Trace.Dropped)
				}
				digests[i] = baselineDigest(res)
				events[i] = traceEventLines(res.Trace)
			}
			if digests[0] != digests[1] {
				t.Errorf("%s seed %d: Workers 1 and 8 digest differently", alg, seed)
			}
			fmt.Fprintf(&got, "== %s seed=%d\n%s%s", alg, seed, digests[0], strings.Join(events[0], ""))
			slices.Sort(events[0])
			slices.Sort(events[1])
			if !slices.Equal(events[0], events[1]) {
				t.Errorf("%s seed %d: Workers 1 and 8 record different event multisets (%d vs %d events)",
					alg, seed, len(events[0]), len(events[1]))
			}
		}
	}
	if *update {
		if err := os.WriteFile(baselineGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(baselineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("baseline instrumentation drifted from %s at line %d:\ngot:  %s\nwant: %s",
					baselineGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("baseline instrumentation drifted from %s: %d lines, want %d",
			baselineGoldenPath, len(gl), len(wl))
	}
}

// baselineDigest renders one run's contrasts, stats and metrics; res must
// carry metrics.
func baselineDigest(res engine.Result) string {
	var b strings.Builder
	for _, c := range res.Contrasts {
		fmt.Fprintf(&b, "contrast %s counts=%s score=%016x chisq=%016x p=%016x\n",
			c.Set.Key(), strings.Trim(fmt.Sprint(c.Supports.Count), "[]"),
			math.Float64bits(c.Score), math.Float64bits(c.ChiSq), math.Float64bits(c.P))
	}
	s := res.Stats
	fmt.Fprintf(&b, "stats partitions=%d pruned=%d sdad_calls=%d merges=%d filtered=%d\n",
		s.PartitionsEvaluated, s.SpacesPruned, s.SDADCalls, s.MergeOps, s.FilteredOut)
	m := res.Metrics
	b.WriteString("counters")
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		fmt.Fprintf(&b, " %s=%d", c, m.Counter(c))
	}
	fmt.Fprintf(&b, " threshold_updates=%d trace_events=%d\n", m.ThresholdUpdates, m.TraceEvents)
	for _, p := range m.Prune {
		fmt.Fprintf(&b, "prune %s=%d\n", p.Rule, p.Hits)
	}
	for _, l := range m.Levels {
		fmt.Fprintf(&b, "level=%d nodes=%d survivors=%d contrasts=%d\n", l.Level, l.Nodes, l.Survivors, l.Contrasts)
	}
	return b.String()
}

// fmtValue renders a float exactly: the shortest decimal that parses back
// to the same bits.
func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
