package core

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/trace"
)

var updateCut = flag.Bool("update", false, "rewrite testdata/categorical_cut.golden")

// categoricalCutGoldenPath pins the lookup-table cut of categorical-only
// mines: TestCategoricalCutGolden rewrites it under -update.
const categoricalCutGoldenPath = "testdata/categorical_cut.golden"

// categoricalCutCases are categorical-only mines deep enough for the
// lookup table to cut candidates: a planted spec at depth 3 and at depth 4
// (parents with 3 items), manufacturing's categorical attributes, and the
// same attributes listed in descending order.
func categoricalCutCases() []struct {
	name  string
	d     *dataset.Dataset
	cfg   Config
	depth int
} {
	planted := datagen.Planted(datagen.UCISpec{Name: "cut", Group0: "a", Group1: "b",
		N0: 700, N1: 500, Cat: 6, Cont: 0, Strength: 0.8, Seed: 21})
	manu := datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: 9, Population: 900, Failed: 300, Features: 15,
	})
	var cats []int
	for a := 0; a < manu.NumAttrs(); a++ {
		if manu.Attr(a).Kind == dataset.Categorical {
			cats = append(cats, a)
		}
	}
	desc := slices.Clone(cats)
	slices.Reverse(desc)
	type tc = struct {
		name  string
		d     *dataset.Dataset
		cfg   Config
		depth int
	}
	return []tc{
		{name: "planted depth=3", d: planted, cfg: Config{Delta: 0.05}, depth: 3},
		{name: "planted depth=4", d: planted, cfg: Config{Delta: 0.05}, depth: 4},
		{name: "manufacturing categorical depth=3", d: manu, cfg: Config{Attrs: cats}, depth: 3},
		{name: "manufacturing categorical descending depth=3", d: manu, cfg: Config{Attrs: desc}, depth: 3},
	}
}

// categoricalCutDigest renders what the lookup-table cut decides: Stats,
// each level's nodes, survivors and contrasts, every prune rule's hits,
// the bitmap AND and popcount counts, and the sorted (level, key, arg)
// lines of every lookup_table prune event.
func categoricalCutDigest(t *testing.T, res Result) []string {
	t.Helper()
	if res.Trace.Dropped != 0 {
		t.Fatalf("trace dropped %d events", res.Trace.Dropped)
	}
	s := res.Stats
	lines := []string{fmt.Sprintf("partitions=%d pruned=%d sdad_calls=%d merges=%d filtered=%d contrasts=%d",
		s.PartitionsEvaluated, s.SpacesPruned, s.SDADCalls, s.MergeOps, s.FilteredOut, len(res.Contrasts))}
	for _, l := range res.Metrics.Levels {
		lines = append(lines, fmt.Sprintf("level=%d nodes=%d survivors=%d contrasts=%d",
			l.Level, l.Nodes, l.Survivors, l.Contrasts))
	}
	for _, p := range res.Metrics.Prune {
		lines = append(lines, fmt.Sprintf("prune %s=%d", p.Rule, p.Hits))
	}
	lines = append(lines, fmt.Sprintf("bitmap_and_ops=%d bitmap_popcounts=%d",
		res.Metrics.BitmapAndOps, res.Metrics.BitmapPopcounts))
	var cuts []string
	prefix := metrics.PruneLookupTable.String() + ":"
	for i := range res.Trace.Events {
		e := &res.Trace.Events[i]
		if e.Kind == trace.KindPrune && strings.HasPrefix(e.Arg, prefix) {
			cuts = append(cuts, fmt.Sprintf("cut level=%d %s %s", e.Level, e.Key(), e.Arg))
		}
	}
	slices.Sort(cuts)
	return append(lines, cuts...)
}

// TestCategoricalCutGolden pins the §4.1 lookup-table cut of categorical
// candidates — which candidates it cuts, by which subset, and every count
// it feeds — at 1 and 8 workers.
func TestCategoricalCutGolden(t *testing.T) {
	got := map[string][]string{}
	var order []string
	for _, tc := range categoricalCutCases() {
		order = append(order, tc.name)
		for _, workers := range []int{1, 8} {
			cfg := tc.cfg
			cfg.MaxDepth, cfg.Workers = tc.depth, workers
			cfg.Metrics, cfg.Trace = metrics.New(), trace.New(1<<20)
			digest := categoricalCutDigest(t, Mine(tc.d, cfg))
			if workers == 1 {
				got[tc.name] = digest
				continue
			}
			if !slices.Equal(digest, got[tc.name]) {
				t.Errorf("%s: workers=8 digest differs from workers=1", tc.name)
			}
		}
		if !slices.ContainsFunc(got[tc.name], func(l string) bool { return strings.HasPrefix(l, "cut ") }) {
			t.Errorf("%s: no lookup-table cut: the case pins nothing", tc.name)
		}
	}
	if *updateCut {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "== %s\n", name)
			for _, l := range got[name] {
				fmt.Fprintln(&b, l)
			}
		}
		if err := os.WriteFile(categoricalCutGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGoldenSections(t, categoricalCutGoldenPath)
	for _, name := range order {
		g, w := got[name], want[name]
		if len(g) != len(w) {
			t.Errorf("%s: digest has %d lines, golden %d", name, len(g), len(w))
		}
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Errorf("%s line %d:\n got  %s\n want %s", name, i+1, g[i], w[i])
				break
			}
		}
	}
}
