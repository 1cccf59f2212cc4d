package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// orderedDataset returns a three-group dataset whose continuous columns
// carry what the positional medians must get right: NaN readings, −0 and
// +0, heavy ties and a constant column. x and y shift with the group, so
// explore recurses several levels deep.
func orderedDataset(seed int64, rows int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	x := make([]float64, rows)
	y := make([]float64, rows)
	c := make([]float64, rows)
	z := make([]float64, rows)
	groups := make([]string, rows)
	for i := range groups {
		g := rng.Intn(3)
		groups[i] = []string{"a", "b", "c"}[g]
		switch rng.Intn(10) {
		case 0:
			x[i] = math.NaN()
		case 1:
			x[i] = negZero
		case 2:
			x[i] = 0
		default:
			x[i] = math.Round(4*(rng.NormFloat64()+0.8*float64(g))) / 4
		}
		y[i] = float64(rng.Intn(6) + 2*g)
		if rng.Intn(12) == 0 {
			y[i] = math.NaN()
		}
		c[i] = 3
		if rng.Intn(20) == 0 {
			c[i] = math.NaN()
		}
		z[i] = rng.Float64()*10 - 5
		if rng.Intn(15) == 0 {
			z[i] = negZero
		}
	}
	return dataset.NewBuilder("ordered").
		AddContinuous("x", x).
		AddContinuous("y", y).
		AddContinuous("c", c).
		AddContinuous("z", z).
		SetGroups(groups).
		MustBuild()
}

// exploreOnce runs explore on one node's run over view and returns the
// contrasts, the split/space/prune events and whether the run took the
// ordered path.
func exploreOnce(d *dataset.Dataset, contAttrs []int, box pattern.Itemset, pruning Pruning, view dataset.View) ([]pattern.Contrast, []trace.Event, bool) {
	cfg := Config{}
	cfg.defaults()
	tr := trace.New(1 << 20)
	r := &sdadRun{
		d:         d,
		cfg:       &cfg,
		prune:     pruning,
		contAttrs: contAttrs,
		alpha:     cfg.Alpha,
		crit:      chiSquareCrit(cfg.Alpha, d.NumGroups()),
		threshold: cfg.scoreFloor(),
		memo:      newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes()),
		scratch:   new(sdadScratch),
		table:     make(pruneTable),
		sizes:     d.GroupSizes(),
		totalRows: d.Rows(),
		tr:        tr,
	}
	got := r.explore(view, box, 1, 0)
	var events []trace.Event
	for _, ev := range tr.Snapshot().Events {
		switch ev.Kind {
		case trace.KindSplit, trace.KindSpace, trace.KindPrune:
			events = append(events, ev)
		}
	}
	return got, events, r.ordered
}

// TestOrderedRunMatchesSelection runs one node's explore twice: over
// d.All(), where the medians are read by position (the root off the
// memo's sorted columns, contAttrs[0] below it off the carried order), and
// over d.Restrict of every row, where each median is selected. The
// contrasts and the split, space and prune events must agree bit for bit.
func TestOrderedRunMatchesSelection(t *testing.T) {
	every := func(d *dataset.Dataset) []int {
		rows := make([]int, d.Rows())
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	deep := 0 // splits on contAttrs[0] below the root, over all cases
	for _, seed := range []int64{1, 2, 3} {
		d := orderedDataset(seed, 900)
		for _, contAttrs := range [][]int{{0}, {1}, {0, 1}, {0, 3}, {2, 3}, {0, 1, 3}, {1, 2, 3}} {
			for _, pruning := range []Pruning{{}, AllPruning()} {
				boxes := []pattern.Itemset{
					pattern.NewItemset(),
					pattern.NewItemset(pattern.RangeItem(contAttrs[0], -1, 4)),
				}
				for bi, box := range boxes {
					name := fmt.Sprintf("seed=%d/attrs=%v/pruning=%v/box=%d", seed, contAttrs, pruning != Pruning{}, bi)
					want, wantEv, selected := exploreOnce(d, contAttrs, box, pruning, d.Restrict(every(d)))
					got, gotEv, ordered := exploreOnce(d, contAttrs, box, pruning, d.All())
					if selected || !ordered {
						t.Fatalf("%s: ordered = %v over Restrict, %v over All", name, selected, ordered)
					}
					if diff := contrastsDiff(got, want); diff != "" {
						t.Errorf("%s: %s", name, diff)
					}
					if diff := eventsDiff(gotEv, wantEv); diff != "" {
						t.Errorf("%s: %s", name, diff)
					}
					first := d.Attr(contAttrs[0]).Name
					for _, ev := range gotEv {
						if ev.Kind == trace.KindSplit && ev.Level > 1 && ev.Arg == first {
							deep++
						}
					}
				}
			}
		}
	}
	if deep < 100 {
		t.Fatalf("only %d splits on the first attribute below the root; the fixture is too weak", deep)
	}
}

// contrastsDiff describes the first difference between two contrast lists
// (key, counts and the bits of score, χ² and p), or returns "".
func contrastsDiff(got, want []pattern.Contrast) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d contrasts, selection gives %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Set.Key() != w.Set.Key() || !slices.Equal(g.Supports.Count, w.Supports.Count) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.ChiSq) != math.Float64bits(w.ChiSq) ||
			math.Float64bits(g.P) != math.Float64bits(w.P) {
			return fmt.Sprintf("contrast %d is %s %v %v %v %v, selection gives %s %v %v %v %v", i,
				g.Set.Key(), g.Supports.Count, g.Score, g.ChiSq, g.P,
				w.Set.Key(), w.Supports.Count, w.Score, w.ChiSq, w.P)
		}
	}
	return ""
}

// eventsDiff describes the first difference between two event sequences
// (all fields but Seq, TS and Worker, floats by bits), or returns "".
func eventsDiff(got, want []trace.Event) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d events, selection gives %d", len(got), len(want))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Kind != w.Kind || g.Level != w.Level || g.Key() != w.Key() || g.Arg != w.Arg ||
			!same(g.V1, w.V1) || !same(g.V2, w.V2) || !same(g.V3, w.V3) ||
			g.NG != w.NG || g.Counts != w.Counts {
			return fmt.Sprintf("event %d is %v %d %s %s %v/%v/%v, selection gives %v %d %s %s %v/%v/%v", i,
				g.Kind, g.Level, g.Key(), g.Arg, g.V1, g.V2, g.V3,
				w.Kind, w.Level, w.Key(), w.Arg, w.V1, w.V2, w.V3)
		}
	}
	return ""
}
