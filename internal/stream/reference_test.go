package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
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

// refLog is the tests' independent record of the rows appended to a
// monitor. It keeps every row in a plain slice and builds the window the
// monitor should hold — the last window rows, oldest first — with
// dataset.Builder over string columns (AddCategorical, SetGroups). It
// shares no code with the monitor's ring buffer or Snapshot.
type refLog struct {
	schema Schema
	window int
	cont   [][]float64
	cat    [][]string
	groups []string
}

func newRefLog(schema Schema, window int) *refLog {
	return &refLog{schema: schema, window: window}
}

func (l *refLog) add(cont []float64, cat []string, group string) {
	l.cont = append(l.cont, slices.Clone(cont))
	l.cat = append(l.cat, slices.Clone(cat))
	l.groups = append(l.groups, group)
}

// dataset builds the reference window, or returns nil when the builder
// rejects it (no rows, or fewer than two groups).
func (l *refLog) dataset() *dataset.Dataset {
	lo := max(0, len(l.groups)-l.window)
	b := dataset.NewBuilder(l.schema.Name)
	for i, name := range l.schema.Continuous {
		var col []float64
		for _, row := range l.cont[lo:] {
			col = append(col, row[i])
		}
		b.AddContinuous(name, col)
	}
	for i, name := range l.schema.Categorical {
		var col []string
		for _, row := range l.cat[lo:] {
			col = append(col, row[i])
		}
		b.AddCategorical(name, col)
	}
	b.SetGroups(l.groups[lo:])
	d, err := b.Build()
	if err != nil {
		return nil
	}
	return d
}

// sameDataset asserts that got equals want: name, attributes, categorical
// codes and domains, group codes and names, and the Float64bits of every
// continuous value, NaN included.
func sameDataset(tb testing.TB, label string, got, want *dataset.Dataset) {
	tb.Helper()
	if (got == nil) != (want == nil) {
		tb.Fatalf("%s: dataset present=%t, reference present=%t", label, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if got.Name() != want.Name() || got.Rows() != want.Rows() || got.NumAttrs() != want.NumAttrs() {
		tb.Fatalf("%s: %s with %d rows × %d attrs, reference %s with %d × %d", label,
			got.Name(), got.Rows(), got.NumAttrs(), want.Name(), want.Rows(), want.NumAttrs())
	}
	for a := 0; a < got.NumAttrs(); a++ {
		if got.Attr(a) != want.Attr(a) {
			tb.Fatalf("%s: attr %d is %+v, reference %+v", label, a, got.Attr(a), want.Attr(a))
		}
	}
	for _, a := range got.ContinuousAttrs() {
		for r := 0; r < got.Rows(); r++ {
			if g, w := got.Cont(a, r), want.Cont(a, r); math.Float64bits(g) != math.Float64bits(w) {
				tb.Fatalf("%s: attr %d row %d is %v, reference %v", label, a, r, g, w)
			}
		}
	}
	for _, a := range got.CategoricalAttrs() {
		if !slices.Equal(got.Domain(a), want.Domain(a)) || !slices.Equal(got.CatCodes(a), want.CatCodes(a)) {
			tb.Fatalf("%s: attr %d coded %v over %q, reference %v over %q", label, a,
				got.CatCodes(a), got.Domain(a), want.CatCodes(a), want.Domain(a))
		}
	}
	if !slices.Equal(got.GroupNames(), want.GroupNames()) || !slices.Equal(got.GroupCodes(), want.GroupCodes()) {
		tb.Fatalf("%s: groups coded %v over %q, reference %v over %q", label,
			got.GroupCodes(), got.GroupNames(), want.GroupCodes(), want.GroupNames())
	}
}

// checkRemine asserts, right after a re-mine, that the window the monitor
// mined equals the reference window and that its patterns are
// bit-identical (keys, counts, scores, χ², p, order) to core.Mine over
// the reference.
func checkRemine(tb testing.TB, label string, m *Monitor, ref *refLog, mining core.Config) {
	tb.Helper()
	want := ref.dataset()
	sameDataset(tb, label+": mined window", m.CurrentData(), want)
	wantC := core.Mine(want, mining).Contrasts
	got := m.Current()
	if len(got) != len(wantC) {
		tb.Fatalf("%s: %d patterns, reference mine %d", label, len(got), len(wantC))
	}
	for j := range got {
		if !sameContrast(got[j], wantC[j]) {
			tb.Fatalf("%s pattern %d: %s=%v, reference mine %s=%v",
				label, j, got[j].Set.Key(), got[j].Score, wantC[j].Set.Key(), wantC[j].Score)
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

// TestBufferedSnapshotMatchesFresh: after every append, through two full
// wraps of the ring, Snapshot equals the reference window built from the
// test's own row log — same codes, same first-appearance domains, same
// group coding, same float bits — and is nil exactly when the reference
// cannot be built.
func TestBufferedSnapshotMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const window = 32
	m := noAutoMineMonitor(t, window)
	ref := newRefLog(testSchema(), window)
	for i := 0; i < 80; i++ {
		cont, cat, group := randomRow(rng)
		if _, err := m.Append(cont, cat, group); err != nil {
			t.Fatal(err)
		}
		ref.add(cont, cat, group)
		sameDataset(t, fmt.Sprintf("append %d", i), m.Snapshot(), ref.dataset())
	}
}

// TestIncrementalMatchesDisabled: a monitor must report the same event
// stream and pattern set as a reference that mines the window built from
// the test's own row log and diffs it against its own previous result. A
// planted failure mode switches on and off every window, so events do
// fire.
func TestIncrementalMatchesDisabled(t *testing.T) {
	const window = 120
	mining := core.Config{MaxDepth: 2}
	events := 0
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc, err := NewMonitor(testSchema(), Config{
			WindowSize: window,
			MineEvery:  window / 4,
			Mining:     mining,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefLog(testSchema(), window)
		base := &Monitor{cfg: inc.cfg} // holds only the reference's diff state
		for i := 0; i < 4*window; i++ {
			before := inc.Mines()
			cont, cat, group := randomRow(rng)
			if i/window%2 == 1 && cat[0] == "m0" {
				group = "fail" // a failure mode that switches on and off
			}
			ev1, err1 := inc.Append(cont, cat, group)
			ref.add(cont, cat, group)
			if errors.Is(err1, ErrWindowNotMineable) {
				if ref.dataset() != nil {
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
			d := ref.dataset()
			sameDataset(t, fmt.Sprintf("seed %d append %d", seed, i), inc.CurrentData(), d)
			next := core.Mine(d, mining).Contrasts
			ev2 := base.diff(d, next)
			base.current, base.curData = next, d
			if len(ev1) != len(ev2) {
				t.Fatalf("seed %d append %d: %d events vs %d", seed, i, len(ev1), len(ev2))
			}
			events += len(ev1)
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
	if events == 0 {
		t.Fatal("no events compared: the event stream check is vacuous")
	}
}

// BenchmarkSnapshot measures copying a full window into a fresh dataset,
// the per-re-mine cost on top of the mine itself.
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
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m.Snapshot() == nil {
					b.Fatal("nil snapshot")
				}
			}
		})
	}
}
