package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // "" = valid
	}{
		{"zero value", Config{}, ""},
		{"paper defaults", Config{Alpha: 0.05, Delta: 0.1, MaxDepth: 5, TopK: 100, Workers: 4}, ""},
		{"negative delta", Config{Delta: -0.1}, "Delta"},
		{"delta at one", Config{Delta: 1}, "Delta"},
		{"nan delta", Config{Delta: math.NaN()}, "Delta"},
		{"negative alpha", Config{Alpha: -0.05}, "Alpha"},
		{"alpha one", Config{Alpha: 1}, "Alpha"},
		{"alpha above one", Config{Alpha: 1.5}, "Alpha"},
		{"negative depth", Config{MaxDepth: -1}, "MaxDepth"},
		{"negative recursion", Config{MaxRecursion: -2}, "MaxRecursion"},
		{"unbounded topk sentinel", Config{TopK: TopKUnbounded}, ""},
		{"negative topk", Config{TopK: -2}, "TopK"},
		{"negative workers", Config{Workers: -8}, "Workers"},
		{"bad measure", Config{Measure: pattern.Measure(99)}, "Measure"},
		{"bad oe mode", Config{OEMode: OEMode(7)}, "OEMode"},
		{"negative attr", Config{Attrs: []int{0, -3}}, "Attrs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want %s error", tc.field)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FieldError", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name field %s", err, tc.field)
			}
		})
	}
}

func TestConfigValidateCollectsAll(t *testing.T) {
	cfg := Config{Alpha: 2, Delta: -1, Workers: -1}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("want error")
	}
	for _, field := range []string{"Alpha", "Delta", "Workers"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("joined error %q misses field %s", err, field)
		}
	}
}

func TestMineContextRejectsInvalidConfig(t *testing.T) {
	d := dataset.NewBuilder("v").
		AddCategorical("a", []string{"x", "y", "x", "y"}).
		SetGroups([]string{"g1", "g1", "g2", "g2"}).
		MustBuild()
	res, err := MineContext(context.Background(), d, Config{Delta: -0.5})
	if err == nil {
		t.Fatal("MineContext accepted a negative Delta")
	}
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "Delta" {
		t.Fatalf("error = %v, want FieldError on Delta", err)
	}
	if len(res.Contrasts) != 0 {
		t.Errorf("invalid config produced %d contrasts", len(res.Contrasts))
	}
}

func TestCanonicalKeyDefaultsResolved(t *testing.T) {
	zero := Config{}
	explicit := Config{Alpha: 0.05, Delta: 0.1, MaxDepth: 5, MaxRecursion: 8, TopK: 100, Workers: 1}
	if zero.CanonicalKey() != explicit.CanonicalKey() {
		t.Errorf("zero config key %q != explicit-defaults key %q",
			zero.CanonicalKey(), explicit.CanonicalKey())
	}
	if zero.CanonicalHash() != explicit.CanonicalHash() {
		t.Error("hashes differ for equivalent configs")
	}
}

func TestCanonicalKeyIgnoresNonSemanticFields(t *testing.T) {
	base := Config{}
	variant := Config{Workers: 8}
	if base.CanonicalHash() != variant.CanonicalHash() {
		t.Error("Workers must not change the canonical hash")
	}
}

func TestCanonicalKeySensitiveToSemanticFields(t *testing.T) {
	base := Config{}
	variants := []Config{
		{Alpha: 0.01},
		{Delta: 0.2},
		{MaxDepth: 3},
		{MaxRecursion: 4},
		{TopK: 10},
		{Measure: pattern.SurprisingMeasure},
		{OEMode: OEModeConservative},
		{SkipMeaningfulFilter: true},
		{ExpectedCountGate: true},
		{Attrs: []int{0, 1}},
		base.NP(),
	}
	seen := map[string]string{base.CanonicalHash(): "base"}
	for i, v := range variants {
		h := v.CanonicalHash()
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %d collides with %s", i, prev)
		}
		seen[h] = v.CanonicalKey()
	}
	// The gate is appended only when set, so no key without it changed.
	if got, want := (Config{ExpectedCountGate: true}).CanonicalKey(), base.CanonicalKey()+";expectedgate=true"; got != want {
		t.Errorf("gated key %q, want %q", got, want)
	}
	// Attribute order must not matter.
	a := Config{Attrs: []int{2, 0, 1}}
	b := Config{Attrs: []int{0, 1, 2}}
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Error("attribute order changed the canonical hash")
	}
}

// contDataset builds a mixed dataset with enough continuous structure that
// SDAD-CS has real splitting and merging work to do.
func contDataset(tb testing.TB, rows int) *dataset.Dataset {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	groups := make([]string, rows)
	c1 := make([]float64, rows)
	c2 := make([]float64, rows)
	c3 := make([]float64, rows)
	cat := make([]string, rows)
	for i := range groups {
		if i%2 == 0 {
			groups[i] = "pass"
			c1[i] = rng.NormFloat64()
		} else {
			groups[i] = "fail"
			c1[i] = rng.NormFloat64() + 1.5
		}
		c2[i] = rng.Float64() * 10
		c3[i] = rng.Float64() * 5
		cat[i] = []string{"A", "B", "C"}[i%3]
	}
	return dataset.NewBuilder("cancel").
		AddContinuous("x", c1).
		AddContinuous("y", c2).
		AddContinuous("z", c3).
		AddCategorical("tool", cat).
		SetGroups(groups).
		MustBuild()
}

// TestSDADRunCancelledContext is the regression test for the satellite
// "propagate ctx into the SDAD-CS recursion": an already-cancelled context
// must stop Algorithm 1 before it evaluates a single space, even though
// the per-level check in MineContext never runs here.
func TestSDADRunCancelledContext(t *testing.T) {
	d := contDataset(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{}
	cfg.defaults()
	run := &sdadRun{
		ctx:       ctx,
		d:         d,
		cfg:       &cfg,
		prune:     AllPruning(),
		contAttrs: []int{0, 1, 2},
		alpha:     cfg.Alpha,
		memo:      newSupportMemo(d, bitmap.NewIndex(d), d.GroupSizes()),
		scratch:   new(sdadScratch),
		table:     make(pruneTable),
		sizes:     d.GroupSizes(),
		totalRows: d.Rows(),
	}
	got := run.run(pattern.NewItemset(), d.All())
	if len(got) != 0 {
		t.Errorf("cancelled run returned %d contrasts", len(got))
	}
	if run.stats.PartitionsEvaluated != 0 {
		t.Errorf("cancelled run evaluated %d partitions, want 0", run.stats.PartitionsEvaluated)
	}

	// Control: the same run with a live context does real work.
	run.ctx = context.Background()
	run.run(pattern.NewItemset(), d.All())
	if run.stats.PartitionsEvaluated == 0 {
		t.Fatal("control run evaluated nothing; test dataset too weak")
	}
}

// TestMergeCancelledContext pins the merge-loop check: a cancelled context
// returns the (deduplicated, volume-sorted) spaces without attempting a
// single merge.
func TestMergeCancelledContext(t *testing.T) {
	d := contDataset(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{}
	cfg.defaults()
	run := &sdadRun{ctx: ctx, d: d, cfg: &cfg, sizes: d.GroupSizes(), totalRows: d.Rows()}
	mk := func(lo, hi float64, counts []int) pattern.Contrast {
		return pattern.Contrast{
			Set:      pattern.NewItemset(pattern.RangeItem(0, lo, hi)),
			Supports: pattern.CountsToSupports(counts, run.sizes),
		}
	}
	in := []pattern.Contrast{mk(0, 1, []int{40, 10}), mk(1, 2, []int{38, 12})}
	out := run.merge(in)
	if len(out) != 2 {
		t.Errorf("cancelled merge changed the space count: %d", len(out))
	}
	if run.stats.MergeOps != 0 {
		t.Errorf("cancelled merge performed %d merges", run.stats.MergeOps)
	}
}

// TestMineContextCancelMidRun cancels a real mine shortly after it starts
// and checks that it returns the context error promptly.
func TestMineContextCancelMidRun(t *testing.T) {
	d := contDataset(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first level
	_, err := MineContext(ctx, d, Config{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MineContext error = %v, want context.Canceled", err)
	}
}
