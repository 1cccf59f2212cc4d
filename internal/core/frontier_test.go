package core

import (
	"slices"
	"testing"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/stats"
	"sdadcs/internal/topk"
)

// lazyFrontierData has two categorical attributes. A's domain declares a
// code, a2, that no row uses, so a2 is absent at level 1. Every a0 row has
// B = b0, so the level-2 child {a0,b1} has an empty cover. The other three
// pairs are present.
func lazyFrontierData() *dataset.Dataset {
	const n = 40
	a, b, g := make([]int, n), make([]int, n), make([]int, n)
	for r := range a {
		a[r] = r % 2
		if a[r] == 1 {
			b[r] = (r / 2) % 2
		}
		g[r] = (r / 4) % 2
	}
	return dataset.NewBuilder("lazy-frontier").
		AddCategoricalCoded("A", a, []string{"a0", "a1", "a2"}).
		AddCategoricalCoded("B", b, []string{"b0", "b1"}).
		SetGroupsCoded(g, []string{"x", "y"}).
		MustBuild()
}

// TestAbsentChildrenLeaveNoTrace: with every pruning rule off, every node
// survives, so the frontier holds exactly the present combinations. An
// empty child is absent — it is neither in its level's Nodes nor counted
// in Stats — and so is an unused level-1 code.
func TestAbsentChildrenLeaveNoTrace(t *testing.T) {
	d := lazyFrontierData()
	for _, workers := range []int{1, 4} {
		rec := metrics.New()
		res := Mine(d, Config{MaxDepth: 2, Pruning: &Pruning{}, SkipMeaningfulFilter: true,
			TopK: TopKUnbounded, Workers: workers, Metrics: rec})
		levels := res.Metrics.Levels
		if len(levels) != 2 {
			t.Fatalf("workers=%d: %d levels observed, want 2", workers, len(levels))
		}
		if levels[0].Nodes != 4 {
			t.Errorf("workers=%d: level 1 has %d nodes, want 4 (2 used codes of A, 2 of B)",
				workers, levels[0].Nodes)
		}
		if levels[1].Nodes != 3 || levels[1].Survivors != 3 {
			t.Errorf("workers=%d: level 2 has %d nodes, %d survivors; want the 3 present pairs",
				workers, levels[1].Nodes, levels[1].Survivors)
		}
		if got := res.Stats.PartitionsEvaluated; got != 7 {
			t.Errorf("workers=%d: %d partitions evaluated, want 4 + 3", workers, got)
		}
	}
}

// TestCoversMaterializeOnlyForParents drives the levelwise loop by hand at
// MaxDepth 2: level 1 builds no node for the unused code, a level-1
// survivor's cover aliases its value bitmap (no copy), expansion builds no
// absent child and leaves the others lazy, and the MaxDepth level neither
// materializes a cover nor returns survivors, although its nodes survive.
func TestCoversMaterializeOnlyForParents(t *testing.T) {
	d := lazyFrontierData()
	cfg := Config{MaxDepth: 2, Pruning: &Pruning{}, SkipMeaningfulFilter: true, TopK: TopKUnbounded}
	cfg.defaults()
	ix := bitmap.NewIndex(d)
	rec := metrics.New()
	m := &miner{d: d, cfg: &cfg, prune: cfg.pruning(), sizes: d.GroupSizes(),
		list: topk.New(cfg.TopK, cfg.scoreFloor()), table: make(pruneTable),
		memo: newSupportMemo(d, ix, d.GroupSizes()), scratch: make([]sdadScratch, 1), index: ix, rec: rec}
	attrs := []int{0, 1}
	schedule := stats.NewBonferroniSchedule(cfg.Alpha)

	level1, _ := m.expand(1, []node{{lastAttr: -1}}, attrs)
	parents := m.processLevel(1, level1, 0, schedule)
	if len(parents) != 4 {
		t.Fatalf("level 1 returned %d survivors, want the 4 used codes", len(parents))
	}
	for _, p := range parents {
		it := p.catSet.Item(0)
		if p.base != ix.Value(it.Attr, it.Code) || p.val != nil {
			t.Errorf("%s: survivor cover is not its value bitmap", p.catSet.Key())
		}
	}
	children, cut := m.expand(2, parents, attrs)
	if len(children) != 3 || cut != 0 {
		t.Fatalf("expansion built %d children and cut %d, want the 3 present pairs of used codes and no cut",
			len(children), cut)
	}
	for _, c := range children {
		if c.base == nil || c.val == nil {
			t.Fatalf("%s: child cover is not the lazy pair (parent cover, value bitmap)", c.catSet.Key())
		}
		o := m.evaluate(2, 0, c, cfg.Alpha, chiSquareCrit(cfg.Alpha, 2), 0)
		if !o.survived || o.cover != nil {
			t.Errorf("%s at MaxDepth: survived=%t cover=%v, want a survivor with no cover",
				c.catSet.Key(), o.survived, o.cover)
		}
	}
	ands := rec.Snapshot().BitmapAndOps
	if got := m.processLevel(2, children, 0, schedule); len(got) != 0 {
		t.Errorf("the MaxDepth level returned %d survivors, want none", len(got))
	}
	// One fused count per present child, and no materializing AND.
	if got := rec.Snapshot().BitmapAndOps - ands; got != 3 {
		t.Errorf("the MaxDepth level ran %d ANDs, want 3 fused counts", got)
	}

	// One level deeper, a survivor whose cover is a real intersection
	// gets it written out, equal to base ∧ val.
	cfg.MaxDepth = 3
	for _, p := range m.processLevel(2, children, 0, schedule) {
		a, b := p.catSet.Item(0), p.catSet.Item(1)
		want := ix.Value(a.Attr, a.Code).And(ix.Value(b.Attr, b.Code))
		if p.base == nil || !slices.Equal(p.base.Rows(), want.Rows()) {
			t.Errorf("%s: materialized cover differs from the intersection", p.catSet.Key())
		}
	}
}
