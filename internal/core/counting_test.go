package core

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
)

// countingGoldenPath holds the reference digest of every
// TestCountingGoldenEquality case. It was recorded when the miner still
// carried two support-counting engines (row-index slices and bitmaps),
// which agreed on every value in it.
const countingGoldenPath = "testdata/counting_golden.txt"

// countingGoldenCases are the inputs of the counting golden digest: a
// categorical-heavy and a mixed dataset, default pruning and filter,
// mined sequentially and with parallel workers, at depth 2 and at depth 3
// (the first depth whose frontier is built from materialized child
// covers).
func countingGoldenCases() []struct {
	name    string
	d       *dataset.Dataset
	depth   int
	workers int
} {
	adult := datagen.Adult(datagen.AdultConfig{Seed: 5, Bachelors: 1200, Doctorate: 300})
	manu := datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: 5, Population: 1500, Failed: 400, Features: 12,
	})
	type tc = struct {
		name    string
		d       *dataset.Dataset
		depth   int
		workers int
	}
	var out []tc
	for _, depth := range []int{2, 3} {
		for _, c := range []tc{{name: "mixed/adult", d: adult}, {name: "categorical/manufacturing", d: manu}} {
			for _, w := range []int{1, 8} {
				name := fmt.Sprintf("%s workers=%d", c.name, w)
				if depth != 2 {
					name = fmt.Sprintf("%s depth=%d workers=%d", c.name, depth, w)
				}
				out = append(out, tc{name: name, d: c.d, depth: depth, workers: w})
			}
		}
	}
	return out
}

// countingDigest renders the values a support-counting engine decides:
// each contrast's key, per-group counts, the exact bits of its score,
// chi-square and p-value, its meaningfulness classification, the run's
// partition count, every other Stats counter, and each level's frontier
// and survivor counts (r must carry a metrics snapshot).
func countingDigest(r Result) []string {
	var lines []string
	for i, c := range r.Contrasts {
		line := fmt.Sprintf("%s counts=%s score=%016x chisq=%016x p=%016x",
			c.Set.Key(), strings.Trim(fmt.Sprint(c.Supports.Count), "[]"),
			math.Float64bits(c.Score), math.Float64bits(c.ChiSq), math.Float64bits(c.P))
		if r.Meaning != nil {
			m := r.Meaning[i]
			line += fmt.Sprintf(" meaning=%t/%t/%t/%q",
				m.Redundant, m.Unproductive, m.NotIndependentlyProductive, m.ExplainedBy)
		}
		lines = append(lines, line)
	}
	lines = append(lines, fmt.Sprintf("partitions=%d", r.Stats.PartitionsEvaluated),
		fmt.Sprintf("pruned=%d sdad_calls=%d merges=%d filtered=%d",
			r.Stats.SpacesPruned, r.Stats.SDADCalls, r.Stats.MergeOps, r.Stats.FilteredOut))
	for _, l := range r.Metrics.Levels {
		lines = append(lines, fmt.Sprintf("level=%d nodes=%d survivors=%d", l.Level, l.Nodes, l.Survivors))
	}
	return lines
}

// readCountingGolden parses the digest file into its "== <case>" sections.
func readCountingGolden(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open(countingGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sections := make(map[string][]string)
	var cur string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "== "); ok {
			cur = name
			sections[cur] = []string{}
			continue
		}
		sections[cur] = append(sections[cur], sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sections
}

// TestCountingGoldenEquality: the bitmap support-counting engine
// reproduces, bit for bit, the reference digest both counting engines
// agreed on — same contrasts in the same order, same supports, same
// scores and test statistics, same classifications, same work counters
// and per-level frontier sizes — sequentially and with parallel workers.
func TestCountingGoldenEquality(t *testing.T) {
	golden := readCountingGolden(t)
	for _, tc := range countingGoldenCases() {
		want, ok := golden[tc.name]
		if !ok {
			t.Errorf("%s: no reference digest in %s", tc.name, countingGoldenPath)
			continue
		}
		got := countingDigest(Mine(tc.d, Config{MaxDepth: tc.depth, Workers: tc.workers, Metrics: metrics.New()}))
		if len(got) != len(want) {
			t.Errorf("%s: digest has %d lines, reference %d", tc.name, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("%s line %d:\n got  %s\n want %s", tc.name, i+1, got[i], want[i])
			}
		}
	}
}

// TestCountingAutoIsBitmap: a run with the default configuration counts
// supports on the bitmap index, observable through the instrumentation
// counters.
func TestCountingAutoIsBitmap(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 3, Bachelors: 400, Doctorate: 100})
	rec := metrics.New()
	Mine(d, Config{MaxDepth: 2, Metrics: rec})
	if s := rec.Snapshot(); s.BitmapBuilds == 0 {
		t.Error("default run did not build a bitmap index")
	}
}

// TestCountingBitmapMetrics: a mixed mining run exercises all four
// bitmap support-counting counters — index builds, cover intersections,
// popcount passes, and lazy row materializations (SDAD-CS box interiors
// need raw rows for medians).
func TestCountingBitmapMetrics(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 3, Bachelors: 800, Doctorate: 200})
	rec := metrics.New()
	Mine(d, Config{MaxDepth: 2, Metrics: rec})
	s := rec.Snapshot()
	if s.BitmapBuilds == 0 {
		t.Error("no bitmap builds recorded")
	}
	if s.BitmapAndOps == 0 {
		t.Error("no bitmap AND ops recorded")
	}
	if s.BitmapPopcounts == 0 {
		t.Error("no popcount passes recorded")
	}
	if s.BitmapLazyRows == 0 {
		t.Error("no lazy materializations recorded on a mixed dataset")
	}
}
