package stream

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
)

func lineSchema() Schema {
	return Schema{
		Name:        "line",
		Continuous:  []string{"temp"},
		Categorical: []string{"machine"},
	}
}

// feed appends n rows from the given regime. In the "normal" regime
// failures are random; in the "hot" regime parts on M2 with high
// temperature fail.
func feed(t *testing.T, m *Monitor, rng *rand.Rand, n int, hot bool) []Event {
	t.Helper()
	var all []Event
	for i := 0; i < n; i++ {
		temp := 100 + rng.Float64()*100
		machine := []string{"M1", "M2"}[rng.Intn(2)]
		group := "pass"
		if hot {
			if temp > 170 && machine == "M2" && rng.Float64() < 0.95 {
				group = "fail"
			} else if rng.Float64() < 0.02 {
				group = "fail"
			}
		} else if rng.Float64() < 0.05 {
			group = "fail"
		}
		events, err := m.Append([]float64{temp}, []string{machine}, group)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, events...)
	}
	return all
}

func newTestMonitor(tb testing.TB) *Monitor {
	tb.Helper()
	m, err := NewMonitor(lineSchema(), Config{
		WindowSize: 800,
		MineEvery:  400,
		Mining:     core.Config{Measure: pattern.SurprisingMeasure, MaxDepth: 2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// mustMonitor builds a monitor or fails the test.
func mustMonitor(tb testing.TB, schema Schema, cfg Config) *Monitor {
	tb.Helper()
	m, err := NewMonitor(schema, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestMonitorDetectsRegimeChange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := newTestMonitor(t)

	// Warm up on the normal regime; drain its initial events.
	feed(t, m, rng, 1200, false)
	if m.Mines() == 0 {
		t.Fatal("no mining during warmup")
	}

	// Switch to the hot regime: the failure signature must appear.
	events := feed(t, m, rng, 1600, true)
	sawSignature := false
	for _, e := range events {
		if e.Kind != Appeared && e.Kind != Drifted {
			continue
		}
		set := e.Contrast.Set
		_, hasTemp := set.ItemOn(0)
		if hasTemp && e.Contrast.Score > 0.3 {
			sawSignature = true
		}
	}
	if !sawSignature {
		for _, e := range events {
			t.Logf("event %s: %s score=%.3f", e.Kind, e.Format, e.Contrast.Score)
		}
		t.Error("hot-regime signature not reported")
	}
}

func TestMonitorQuietOnStableStream(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := mustMonitor(t, lineSchema(), Config{
		WindowSize:    800,
		MineEvery:     400,
		MinEventScore: 0.2, // alerting floor: ignore weak flicker
		Mining:        core.Config{Measure: pattern.SurprisingMeasure, MaxDepth: 2},
	})
	feed(t, m, rng, 1600, true) // reach steady state on one regime
	events := feed(t, m, rng, 1600, true)
	// A stable regime should produce few strong events (boundary jitter
	// can cause occasional drift reports, but not a stream of strong
	// appearances).
	appeared := 0
	for _, e := range events {
		if e.Kind == Appeared {
			appeared++
		}
	}
	if appeared > 2 {
		t.Errorf("%d strong appearances on a stable stream", appeared)
	}
}

func TestMonitorWindowEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newTestMonitor(t)
	feed(t, m, rng, 3000, false)
	if m.Len() != 800 {
		t.Errorf("window holds %d rows, want 800", m.Len())
	}
	// After feeding far more hot rows than the window holds, the normal
	// regime must be fully forgotten: current patterns show the
	// signature.
	feed(t, m, rng, 2000, true)
	found := false
	for _, c := range m.Current() {
		if c.Score > 0.3 {
			found = true
		}
	}
	if !found {
		t.Error("current patterns do not reflect the new regime")
	}
	if m.CurrentData() == nil {
		t.Error("no current snapshot dataset")
	}
}

func TestMonitorSchemaMismatch(t *testing.T) {
	m := newTestMonitor(t)
	if _, err := m.Append([]float64{1, 2}, []string{"M1"}, "pass"); err == nil {
		t.Error("wrong continuous arity should error")
	}
	if _, err := m.Append([]float64{1}, nil, "pass"); err == nil {
		t.Error("wrong categorical arity should error")
	}
}

func TestMonitorSingleGroupWindow(t *testing.T) {
	m := mustMonitor(t, lineSchema(), Config{WindowSize: 100, MineEvery: 50})
	// All rows in one group: every due re-mine must surface the typed
	// sentinel (not silently report "no changes"), produce no events, and
	// leave the monitor usable.
	ticks := 0
	for i := 0; i < 200; i++ {
		events, err := m.Append([]float64{float64(i)}, []string{"M1"}, "pass")
		if err != nil {
			if !errors.Is(err, ErrWindowNotMineable) {
				t.Fatalf("unexpected error: %v", err)
			}
			ticks++
		}
		if len(events) != 0 {
			t.Fatal("events from a single-group window")
		}
	}
	if ticks == 0 {
		t.Error("no ErrWindowNotMineable surfaced from single-group re-mines")
	}
	if m.SkippedMines() != ticks {
		t.Errorf("SkippedMines = %d, want %d", m.SkippedMines(), ticks)
	}
	if m.Mines() != 0 {
		t.Errorf("Mines = %d on an unmineable stream", m.Mines())
	}
	if m.Snapshot() != nil {
		t.Error("single-group snapshot should be nil")
	}
	// A second group arriving makes the next due re-mine succeed (50 fail
	// rows: the window is then half pass, half fail).
	for i := 0; i < 50; i++ {
		if _, err := m.Append([]float64{float64(i)}, []string{"M1"}, "fail"); err != nil {
			t.Fatalf("Append after second group: %v", err)
		}
	}
	if m.Mines() == 0 {
		t.Error("monitor did not recover once a second group arrived")
	}
}

func TestStructurallySame(t *testing.T) {
	// Two snapshot datasets whose categorical domains are coded in
	// opposite first-appearance orders: in da, "M2" is code 2; in db it
	// is code 0.
	mk := func(values []string) *dataset.Dataset {
		n := len(values)
		x := make([]float64, n)
		g := make([]string, n)
		for i := range x {
			x[i] = float64(i)
			g[i] = []string{"p", "f"}[i%2]
		}
		return dataset.NewBuilder("s").
			AddContinuous("temp", x).
			AddCategorical("machine", values).
			SetGroups(g).
			MustBuild()
	}
	da := mk([]string{"M0", "M1", "M2", "M0", "M1", "M2"})
	db := mk([]string{"M2", "M1", "M0", "M2", "M1", "M0"})

	a := pattern.NewItemset(pattern.RangeItem(0, 1, 3), pattern.CatItem(1, 2)) // M2 in da
	b := pattern.NewItemset(pattern.RangeItem(0, 2, 4), pattern.CatItem(1, 0)) // M2 in db
	if !structurallySame(a, da, b, db) {
		t.Error("same value under different codes should match")
	}
	sameCode := pattern.NewItemset(pattern.RangeItem(0, 2, 4), pattern.CatItem(1, 2)) // M0 in db
	if structurallySame(a, da, sameCode, db) {
		t.Error("same code but different value should not match")
	}
	disjoint := pattern.NewItemset(pattern.RangeItem(0, 4, 5), pattern.CatItem(1, 0))
	if structurallySame(a, da, disjoint, db) {
		t.Error("disjoint ranges should not match")
	}
	smaller := pattern.NewItemset(pattern.RangeItem(0, 1, 3))
	if structurallySame(a, da, smaller, db) {
		t.Error("different sizes should not match")
	}
	if structurallySame(a, nil, b, db) {
		t.Error("nil dataset should not match")
	}
}

// TestDiffSiblingPatterns: when two sibling patterns over the same
// attribute persist across windows — the low and high halves of a split,
// say — diff must pair each new pattern with the previous pattern whose
// range it actually continues, not the first structural candidate in list
// order. First-match pairing used to cross the siblings (both overlap near
// the split point) and emit a spurious Drifted plus an Appeared and a
// Disappeared for a perfectly stable pattern set.
func TestDiffSiblingPatterns(t *testing.T) {
	mkData := func(name string) *dataset.Dataset {
		x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		g := make([]string, len(x))
		for i := range g {
			g[i] = []string{"pass", "fail"}[i%2]
		}
		return dataset.NewBuilder(name).
			AddContinuous("temp", x).
			SetGroups(g).
			MustBuild()
	}
	mkC := func(lo, hi, score float64) pattern.Contrast {
		return pattern.Contrast{
			Set:   pattern.NewItemset(pattern.RangeItem(0, lo, hi)),
			Score: score,
		}
	}

	m := mustMonitor(t, Schema{Name: "line", Continuous: []string{"temp"}},
		Config{WindowSize: 100, MineEvery: 50})
	m.curData = mkData("prev")
	m.current = []pattern.Contrast{
		mkC(0, 5, 0.5),    // low sibling
		mkC(4.5, 10, 0.9), // high sibling
	}
	nextD := mkData("next")

	// The same two siblings, bin boundaries jittered, the high one listed
	// first. It overlaps BOTH previous patterns; only maximal-overlap
	// pairing matches it to its own predecessor.
	events := m.diff(nextD, []pattern.Contrast{
		mkC(4, 9.5, 0.9), // high sibling, drifted boundaries
		mkC(0.2, 4, 0.5), // low sibling
	})
	for _, e := range events {
		t.Logf("spurious event %s: %s (score %.2f, prev %.2f)",
			e.Kind, e.Format, e.Contrast.Score, e.PrevScore)
	}
	if len(events) != 0 {
		t.Errorf("stable sibling patterns produced %d events, want 0", len(events))
	}

	// A genuine score drop on the high sibling must still be reported.
	events = m.diff(nextD, []pattern.Contrast{
		mkC(4, 9.5, 0.4),
		mkC(0.2, 4, 0.5),
	})
	drifted := 0
	for _, e := range events {
		if e.Kind == Drifted && e.PrevScore == 0.9 {
			drifted++
		}
	}
	if drifted != 1 {
		t.Errorf("high-sibling score drop reported %d drift events, want 1", drifted)
	}
}

func TestEventKindString(t *testing.T) {
	if Appeared.String() != "appeared" || Disappeared.String() != "disappeared" ||
		Drifted.String() != "drifted" {
		t.Error("kind names wrong")
	}
	if EventKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

// TestRemineLatencyRecorded: a recorder on the mining config observes one
// latency sample per window re-mine.
func TestRemineLatencyRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rec := metrics.New()
	m := mustMonitor(t, lineSchema(), Config{
		WindowSize: 400,
		MineEvery:  200,
		Mining: core.Config{
			Measure: pattern.SurprisingMeasure, MaxDepth: 2, Metrics: rec,
		},
	})
	feed(t, m, rng, 900, true)
	if m.Mines() == 0 {
		t.Fatal("no re-mines happened")
	}
	s := rec.Snapshot()
	if s.Remine.Count != int64(m.Mines()) {
		t.Errorf("remine observations = %d, want %d (one per mine)", s.Remine.Count, m.Mines())
	}
	if s.Remine.TotalNanos <= 0 || s.Remine.MaxNanos < s.Remine.MinNanos {
		t.Errorf("remine timer inconsistent: %+v", s.Remine)
	}
	// The combination-search counters flow through from core as well.
	if len(s.Levels) == 0 {
		t.Error("no per-level data from windowed mining")
	}
}

// TestTinyWindowMineEveryClamped pins the WindowSize 1–3 regression: the
// MineEvery default is WindowSize/4, which integer-divides to zero for tiny
// windows and made the `sinceMine < MineEvery` due-check vacuously true —
// re-mining on every append by arithmetic accident rather than by policy.
// The clamp makes the cadence an explicit 1.
func TestTinyWindowMineEveryClamped(t *testing.T) {
	for _, w := range []int{1, 2, 3} {
		m := mustMonitor(t, lineSchema(), Config{
			WindowSize: w,
			Mining:     core.Config{Measure: pattern.SurprisingMeasure, MaxDepth: 1},
		})
		if m.cfg.MineEvery != 1 {
			t.Errorf("WindowSize=%d: MineEvery defaulted to %d, want clamp to 1",
				w, m.cfg.MineEvery)
		}
	}
	// WindowSize 4 is the first size where the /4 default is not clamped.
	m := mustMonitor(t, lineSchema(), Config{
		WindowSize: 4,
		Mining:     core.Config{Measure: pattern.SurprisingMeasure, MaxDepth: 1},
	})
	if m.cfg.MineEvery != 1 {
		t.Errorf("WindowSize=4: MineEvery = %d, want 1 (4/4)", m.cfg.MineEvery)
	}
}

// TestTinyWindowMinesEveryAppend: with the clamped cadence a WindowSize-2
// monitor attempts a re-mine on every append — each attempt either mines or
// is counted as skipped (single-group window), never silently dropped.
func TestTinyWindowMinesEveryAppend(t *testing.T) {
	m := mustMonitor(t, lineSchema(), Config{
		WindowSize: 2,
		Mining:     core.Config{Measure: pattern.SurprisingMeasure, MaxDepth: 1},
	})
	const appends = 8
	for i := 0; i < appends; i++ {
		group := []string{"pass", "fail"}[i%2]
		_, err := m.Append([]float64{float64(200 + 10*(i%2))}, []string{"m1"}, group)
		if err != nil && !errors.Is(err, ErrWindowNotMineable) {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := m.Mines() + m.SkippedMines(); got != appends {
		t.Errorf("mines(%d)+skipped(%d) = %d, want one attempt per append (%d)",
			m.Mines(), m.SkippedMines(), got, appends)
	}
	if m.Mines() == 0 {
		t.Error("two-group tiny window never mined successfully")
	}
}

// TestCadenceGuardCountClauseRemoved pins the cadence-guard fix. The old
// guard carried a second `m.count < m.cfg.MineEvery` clause; the audit
// showed it dead for every valid config (during first fill the row count
// never trails the appends-since-mine counter, and a saturated window
// holds WindowSize ≥ MineEvery rows) — but for MineEvery > WindowSize it
// silently suppressed every re-mine forever. With the clause gone, a
// tiny window forced past Validate still attempts a re-mine each time the
// cadence comes due: every attempt lands in Mines() or SkippedMines().
func TestCadenceGuardCountClauseRemoved(t *testing.T) {
	m := mustMonitor(t, lineSchema(), Config{
		WindowSize: 4,
		MineEvery:  4,
		Mining:     core.Config{Measure: pattern.SurprisingMeasure, MaxDepth: 1},
	})
	m.cfg.MineEvery = 6 // force the misconfiguration Validate now rejects
	const appends = 12
	for i := 0; i < appends; i++ {
		group := []string{"pass", "fail"}[i%2]
		_, err := m.Append([]float64{float64(100 + i)}, []string{"m1"}, group)
		if err != nil && !errors.Is(err, ErrWindowNotMineable) {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Due at appends 6 and 12. The removed clause compared the window's
	// row count (at most 4) against the cadence (6) and skipped both —
	// zero attempts, reported as a clean "no changes" stream.
	if got := m.Mines() + m.SkippedMines(); got != 2 {
		t.Errorf("mines(%d)+skipped(%d) = %d attempts, want 2 (every due re-mine runs)",
			m.Mines(), m.SkippedMines(), got)
	}
	if m.Mines() == 0 {
		t.Error("two-group window never mined despite due re-mines")
	}
}

// TestRangeOverlapSymmetric pins the unbounded-interval scoring cases:
// the overlap score must not depend on which side of the pair an
// unbounded end sits (clamping direction flips between windows).
func TestRangeOverlapSymmetric(t *testing.T) {
	inf := math.Inf(1)
	set := func(lo, hi float64) pattern.Itemset {
		return pattern.NewItemset(pattern.RangeItem(0, lo, hi))
	}
	cases := []struct {
		name string
		a, b pattern.Itemset
		want float64
	}{
		{"finite Jaccard", set(0, 4), set(2, 6), 2.0 / 6.0},
		{"identical finite", set(1, 3), set(1, 3), 1},
		{"both unbounded same way", set(0, inf), set(1, inf), 1},
		{"opposite half-lines", set(-inf, 5), set(3, inf), 0},
		{"finite nested in half-line", set(2, 6), set(0, inf), 1},
		{"finite overlapping half-line", set(2, 6), set(4, inf), 0.5},
		{"disjoint", set(0, 1), set(2, 3), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, rev := rangeOverlap(tc.a, tc.b), rangeOverlap(tc.b, tc.a)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("rangeOverlap = %v, want %v", got, tc.want)
			}
			if math.Float64bits(got) != math.Float64bits(rev) {
				t.Errorf("asymmetric: a,b=%v but b,a=%v", got, rev)
			}
		})
	}
}

// TestDiffSiblingPatternsBoundaryJitterUnbounded: the regression the
// symmetric scoring fixes. One window clamps the high sibling to a
// half-line, the next re-bounds it; under the old scoring a finite
// interval inside an unbounded union earned zero credit, so both
// previous siblings tied at 0 and first-match order — not range
// continuity — decided the pairing, emitting spurious events for a
// stable pattern set.
func TestDiffSiblingPatternsBoundaryJitterUnbounded(t *testing.T) {
	inf := math.Inf(1)
	mkData := func(name string) *dataset.Dataset {
		x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		g := make([]string, len(x))
		for i := range g {
			g[i] = []string{"pass", "fail"}[i%2]
		}
		return dataset.NewBuilder(name).
			AddContinuous("temp", x).
			SetGroups(g).
			MustBuild()
	}
	mkC := func(lo, hi, score float64) pattern.Contrast {
		return pattern.Contrast{
			Set:   pattern.NewItemset(pattern.RangeItem(0, lo, hi)),
			Score: score,
		}
	}
	m := mustMonitor(t, Schema{Name: "line", Continuous: []string{"temp"}},
		Config{WindowSize: 100, MineEvery: 50})
	m.curData = mkData("prev")
	m.current = []pattern.Contrast{
		mkC(-inf, 5, 0.5), // low sibling, clamped low end
		mkC(5, inf, 0.9),  // high sibling, clamped high end
	}
	// Next window re-bounds the high sibling to a finite interval that
	// also pokes just below the previous split point: it overlaps both
	// previous siblings, and both unions are unbounded.
	events := m.diff(mkData("next"), []pattern.Contrast{
		mkC(4.8, 9, 0.9),    // high sibling, finite this window
		mkC(-inf, 4.8, 0.5), // low sibling, jittered boundary
	})
	for _, e := range events {
		t.Logf("spurious event %s: %s (score %.2f, prev %.2f)",
			e.Kind, e.Format, e.Contrast.Score, e.PrevScore)
	}
	if len(events) != 0 {
		t.Errorf("stable clamped siblings produced %d events, want 0", len(events))
	}
}

// TestConfigValidate mirrors core's configcheck tests: every actively
// malformed field is rejected with a *FieldError naming it, zero values are
// never errors, and an invalid embedded Mining config surfaces the core
// package's own typed errors through the join.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // "" = config is valid
	}{
		{"zero value", Config{}, ""},
		{"explicit sane", Config{WindowSize: 100, MineEvery: 25, DriftDelta: 0.2, MinEventScore: 0.1}, ""},
		{"negative window", Config{WindowSize: -1}, "WindowSize"},
		{"negative cadence", Config{MineEvery: -5}, "MineEvery"},
		{"negative drift", Config{DriftDelta: -0.1}, "DriftDelta"},
		{"NaN drift", Config{DriftDelta: math.NaN()}, "DriftDelta"},
		{"negative event floor", Config{MinEventScore: -1}, "MinEventScore"},
		{"NaN event floor", Config{MinEventScore: math.NaN()}, "MinEventScore"},
		{"cadence exceeds window", Config{WindowSize: 100, MineEvery: 101}, "MineEvery"},
		{"cadence exceeds tiny window", Config{WindowSize: 2, MineEvery: 3}, "MineEvery"},
		{"cadence exceeds defaulted window", Config{WindowSize: 0, MineEvery: 2001}, "MineEvery"},
		{"cadence equals window", Config{WindowSize: 100, MineEvery: 100}, ""},
		{"cadence equals defaulted window", Config{WindowSize: 0, MineEvery: 2000}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid %s accepted", tc.field)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error is not a *FieldError: %v", err)
			}
			if fe.Field != tc.field {
				t.Errorf("FieldError.Field = %q, want %q", fe.Field, tc.field)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("message %q does not name the field %q", err, tc.field)
			}
		})
	}
}

// TestDefaultWindowSize: the window a zero WindowSize selects is the one
// Validate bounds the cadence by, and it is the documented 2000 rows.
func TestDefaultWindowSize(t *testing.T) {
	cfg := Config{}
	cfg.defaults()
	if cfg.WindowSize != DefaultWindowSize || DefaultWindowSize != 2000 {
		t.Fatalf("zero WindowSize resolves to %d, DefaultWindowSize = %d, want 2000", cfg.WindowSize, DefaultWindowSize)
	}
	if err := (Config{MineEvery: cfg.WindowSize}).Validate(); err != nil {
		t.Errorf("cadence equal to the default window rejected: %v", err)
	}
	if err := (Config{MineEvery: cfg.WindowSize + 1}).Validate(); err == nil {
		t.Error("cadence past the default window accepted")
	}
}

// TestConfigValidateJoinsMiningErrors: a malformed embedded core.Config is
// reported through the same joined error, as the core package's typed
// *core.FieldError — callers can errors.As for either layer.
func TestConfigValidateJoinsMiningErrors(t *testing.T) {
	cfg := Config{
		WindowSize: -2, // stream-layer violation
		Mining:     core.Config{Alpha: 1.5, MaxDepth: -1},
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	var se *FieldError
	if !errors.As(err, &se) || se.Field != "WindowSize" {
		t.Errorf("stream-layer *FieldError not surfaced: %v", err)
	}
	var ce *core.FieldError
	if !errors.As(err, &ce) {
		t.Fatalf("embedded mining violation not surfaced as *core.FieldError: %v", err)
	}
	if ce.Field != "Alpha" && ce.Field != "MaxDepth" {
		t.Errorf("core FieldError names %q, want Alpha or MaxDepth", ce.Field)
	}
}

// TestNewMonitorRejectsInvalidConfig: construction is fail-fast — the
// validation errors come back from NewMonitor before any buffer allocation.
func TestNewMonitorRejectsInvalidConfig(t *testing.T) {
	_, err := NewMonitor(lineSchema(), Config{WindowSize: -1, DriftDelta: math.NaN()})
	if err == nil {
		t.Fatal("NewMonitor accepted an invalid config")
	}
	var fe *FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("NewMonitor error is not addressable as *FieldError: %v", err)
	}
}
