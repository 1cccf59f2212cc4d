package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/core"
)

func testSchema() Schema {
	return Schema{
		Name:        "line",
		Continuous:  []string{"temp", "pressure"},
		Categorical: []string{"machine", "shift"},
	}
}

func randomRow(rng *rand.Rand) ([]float64, []string, string) {
	cont := []float64{rng.NormFloat64()*5 + 20, rng.NormFloat64() + 1.5}
	if rng.Intn(20) == 0 {
		cont[1] = math.NaN() // missing reading
	}
	cat := []string{
		fmt.Sprintf("m%d", rng.Intn(4)),
		[]string{"day", "night"}[rng.Intn(2)],
	}
	group := []string{"ok", "fail", "degraded"}[rng.Intn(3)]
	return cont, cat, group
}

// TestDeltaIndexBattery is the 50-seed bit-identity battery: a monitor is
// driven with random rows through several full window wraps, and at every
// re-mine the delta-maintained index materialized for the snapshot is
// compared bitmap-for-bitmap against a from-scratch rebuild of the same
// snapshot. Any divergence — a missed eviction flip, a rotation error, a
// domain-order mismatch — fails the battery.
func TestDeltaIndexBattery(t *testing.T) {
	const (
		window  = 48 // not a multiple of 64: partial-word edges stay covered
		appends = 200
	)
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMonitor(testSchema(), Config{
			WindowSize: window,
			MineEvery:  window/4 + int(seed%5), // vary re-mine phase across seeds
			Mining:     core.Config{MaxDepth: 2},
		})
		if err != nil {
			t.Fatalf("seed %d: NewMonitor: %v", seed, err)
		}
		mined, fillChecks := 0, 0
		for i := 0; i < appends; i++ {
			cont, cat, group := randomRow(rng)
			if _, err := m.Append(cont, cat, group); err != nil {
				t.Fatalf("seed %d append %d: %v", seed, i, err)
			}
			if d := m.CurrentData(); d != nil && m.Mines() > mined {
				mined = m.Mines()
				if m.count < window {
					fillChecks++ // pre-saturation: evictions have not started
				}
				got := m.delta.Materialize(d, m.start, m.count, m.catAttrs())
				want := bitmap.NewIndex(d)
				if !bitmap.EqualIndex(got, want) {
					t.Fatalf("seed %d after %d appends: delta index differs from rebuild", seed, i+1)
				}
			}
		}
		if mined == 0 {
			t.Fatalf("seed %d: no re-mine ran", seed)
		}
		if fillChecks == 0 {
			// MineEvery < window, so re-mines fire while the window is still
			// filling: the battery must have compared that regime too, not
			// just saturated windows.
			t.Fatalf("seed %d: battery never compared a still-filling window", seed)
		}
	}
}

// noAutoMineMonitor builds a monitor that never auto-mines: Validate now
// rejects MineEvery > WindowSize, so the snapshot-focused tests construct
// a valid monitor and then push the cadence out of reach directly
// (in-package access; Append's guard reads m.cfg live).
func noAutoMineMonitor(tb testing.TB, window int) *Monitor {
	tb.Helper()
	m, err := NewMonitor(testSchema(), Config{WindowSize: window, MineEvery: window})
	if err != nil {
		tb.Fatal(err)
	}
	m.cfg.MineEvery = 1 << 30
	return m
}

// TestBufferedSnapshotMatchesFresh: the double-buffered snapshot path and
// the allocating Snapshot must produce identical datasets — same codes,
// same first-appearance domains, same group coding, same float bits.
func TestBufferedSnapshotMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := noAutoMineMonitor(t, 32)
	for i := 0; i < 80; i++ { // wraps the window twice
		cont, cat, group := randomRow(rng)
		if _, err := m.Append(cont, cat, group); err != nil {
			t.Fatal(err)
		}
		fresh := m.Snapshot()
		buffered := m.snapshotBuffered()
		if (fresh == nil) != (buffered == nil) {
			t.Fatalf("append %d: fresh=%v buffered=%v", i, fresh != nil, buffered != nil)
		}
		if fresh == nil {
			continue
		}
		if fresh.Rows() != buffered.Rows() || fresh.NumAttrs() != buffered.NumAttrs() {
			t.Fatalf("append %d: shape mismatch", i)
		}
		for a := 0; a < fresh.NumAttrs(); a++ {
			if fresh.Attr(a) != buffered.Attr(a) {
				t.Fatalf("append %d attr %d: %+v vs %+v", i, a, fresh.Attr(a), buffered.Attr(a))
			}
		}
		for r := 0; r < fresh.Rows(); r++ {
			for _, a := range fresh.ContinuousAttrs() {
				if math.Float64bits(fresh.Cont(a, r)) != math.Float64bits(buffered.Cont(a, r)) {
					t.Fatalf("append %d: cont attr %d row %d differs", i, a, r)
				}
			}
			for _, a := range fresh.CategoricalAttrs() {
				if fresh.CatCode(a, r) != buffered.CatCode(a, r) ||
					fresh.CatValue(a, r) != buffered.CatValue(a, r) {
					t.Fatalf("append %d: cat attr %d row %d differs", i, a, r)
				}
			}
			if fresh.Group(r) != buffered.Group(r) {
				t.Fatalf("append %d: group row %d differs", i, r)
			}
		}
		for g := 0; g < fresh.NumGroups(); g++ {
			if fresh.GroupName(g) != buffered.GroupName(g) {
				t.Fatalf("append %d: group name %d differs", i, g)
			}
		}
	}
}

// TestDoubleBufferKeepsPreviousSnapshotIntact: diff reads curData (the
// previous snapshot) while the next one is being assembled; alternating
// buffers must keep the previous snapshot's columns untouched.
func TestDoubleBufferKeepsPreviousSnapshotIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := noAutoMineMonitor(t, 16)
	for i := 0; i < 40; i++ {
		cont, cat, group := randomRow(rng)
		if _, err := m.Append(cont, cat, group); err != nil {
			t.Fatal(err)
		}
	}
	prev := m.snapshotBuffered()
	snap := make([]float64, prev.Rows())
	copy(snap, prev.ContColumn(0))
	prevGroups := append([]int(nil), prev.GroupCodes()...)

	for i := 0; i < 16; i++ { // slide a full window
		cont, cat, group := randomRow(rng)
		if _, err := m.Append(cont, cat, group); err != nil {
			t.Fatal(err)
		}
	}
	_ = m.snapshotBuffered() // writes the *other* buffer
	for r := range snap {
		if math.Float64bits(prev.ContColumn(0)[r]) != math.Float64bits(snap[r]) {
			t.Fatalf("previous snapshot's cont column mutated at row %d", r)
		}
		if prev.GroupCodes()[r] != prevGroups[r] {
			t.Fatalf("previous snapshot's group column mutated at row %d", r)
		}
	}
}

// TestIncrementalMatchesDisabled: a monitor re-mining over snapshots seeded
// with the delta index must report the same event stream and pattern set
// as a reference that mines a fresh Snapshot of the same window (index
// built from scratch) and diffs it against its own previous result. This
// is the end-to-end check that the seeded index changes nothing about
// mining results or the events derived from them.
func TestIncrementalMatchesDisabled(t *testing.T) {
	mining := core.Config{MaxDepth: 2}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc, err := NewMonitor(testSchema(), Config{
			WindowSize: 40,
			MineEvery:  10,
			Mining:     mining,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := &Monitor{cfg: inc.cfg} // holds only the reference's diff state
		for i := 0; i < 160; i++ {
			before := inc.Mines()
			cont, cat, group := randomRow(rng)
			ev1, err1 := inc.Append(cont, cat, group)
			if errors.Is(err1, ErrWindowNotMineable) {
				if inc.Snapshot() != nil {
					t.Fatalf("seed %d append %d: mineable window reported unmineable", seed, i)
				}
				continue
			}
			if err1 != nil {
				t.Fatalf("seed %d append %d: %v", seed, i, err1)
			}
			if inc.Mines() == before {
				if len(ev1) != 0 {
					t.Fatalf("seed %d append %d: %d events without a re-mine", seed, i, len(ev1))
				}
				continue
			}
			d := inc.Snapshot()
			next := core.Mine(d, mining).Contrasts
			ev2 := base.diff(d, next)
			base.current, base.curData = next, d
			if len(ev1) != len(ev2) {
				t.Fatalf("seed %d append %d: %d events vs %d", seed, i, len(ev1), len(ev2))
			}
			for j := range ev1 {
				if ev1[j].Kind != ev2[j].Kind || ev1[j].Format != ev2[j].Format ||
					ev1[j].Contrast.Score != ev2[j].Contrast.Score {
					t.Fatalf("seed %d append %d event %d: %+v vs %+v", seed, i, j, ev1[j], ev2[j])
				}
			}
		}
		a, b := inc.Current(), base.current
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d patterns vs %d", seed, len(a), len(b))
		}
		for j := range a {
			if a[j].Score != b[j].Score || a[j].Format(inc.CurrentData()) != b[j].Format(base.curData) {
				t.Fatalf("seed %d pattern %d: %v vs %v", seed, j, a[j], b[j])
			}
		}
	}
}

// BenchmarkSnapshot pairs the allocating Snapshot path against the
// double-buffered one across window sizes: fresh snapshots allocate
// proportionally to the window, buffered ones only proportionally to the
// distinct-value domains.
func BenchmarkSnapshot(b *testing.B) {
	for _, window := range []int{1024, 8192} {
		m := noAutoMineMonitor(b, window)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < window+window/2; i++ {
			cont, cat, group := randomRow(rng)
			if _, err := m.Append(cont, cat, group); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("fresh/window=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m.Snapshot() == nil {
					b.Fatal("nil snapshot")
				}
			}
		})
		b.Run(fmt.Sprintf("buffered/window=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m.snapshotBuffered() == nil {
					b.Fatal("nil snapshot")
				}
			}
		})
	}
}

// TestBufferedSnapshotAllocsDoNotScaleWithWindow pins the satellite's
// claim numerically: bytes allocated per buffered snapshot must be within
// noise between a 1k and an 8k window.
func TestBufferedSnapshotAllocsDoNotScaleWithWindow(t *testing.T) {
	perSnapshot := func(window int) float64 {
		m := noAutoMineMonitor(t, window)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < window+window/2; i++ {
			cont, cat, group := randomRow(rng)
			if _, err := m.Append(cont, cat, group); err != nil {
				t.Fatal(err)
			}
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m.snapshotBuffered() == nil {
					b.Fatal("nil snapshot")
				}
			}
		})
		return float64(res.AllocedBytesPerOp())
	}
	small, large := perSnapshot(1024), perSnapshot(8192)
	// The window grew 8×; buffered snapshot allocations (dataset shell,
	// domains, attr metadata) must not. Allow 2× for noise.
	if large > 2*small+1024 {
		t.Fatalf("buffered snapshot allocations scale with window: %0.f B at 1k vs %0.f B at 8k", small, large)
	}
}
