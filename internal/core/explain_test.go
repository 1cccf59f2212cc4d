package core

import (
	"testing"

	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// tracedMine runs a single-worker Mine with tracing on — the
// deterministic setup the golden explain tests pin (one worker keeps the
// event order stable; Format drops timestamps and sequence numbers).
func tracedMine(d *dataset.Dataset, cfg Config) Result {
	cfg.Workers = 1
	cfg.Trace = trace.New(0)
	cfg.Measure = pattern.SurprisingMeasure
	return Mine(d, cfg)
}

// TestExplainGoldenEmitted pins the provenance chain of an emitted top-k
// pattern (acceptance case a): the hurricane conjunction is evaluated,
// emitted, admitted and kept.
func TestExplainGoldenEmitted(t *testing.T) {
	d := hurricaneData(t)
	res := tracedMine(d, Config{})
	set := pattern.NewItemset(
		item(d, "temp", "yes"), item(d, "depth", "yes"), item(d, "shear", "yes"))
	got := Explain(res.Trace, set).Format(d)
	want := `pattern: temp = yes and depth = yes and shear = yes
verdict: emitted
decisions:
  - level 3: evaluated (740 rows, group counts [71 669])
  - level 3: emitted as contrast (score 0.9735407242919762, chi2 5352.081400477574, p 0)
  - top-k admitted (threshold -Inf -> -Inf)
  - meaningfulness filter: kept (score 0.9735407242919762)
`
	if got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// chiSquareBorderline builds a deterministic dataset where {a=t} has a
// support difference above δ (0.12 > 0.1) but a chi-square p-value above
// α (≈0.087 for the [[50,62],[50,38]] table) — large but not significant.
func chiSquareBorderline(t *testing.T) *dataset.Dataset {
	t.Helper()
	n := 200
	a := make([]string, n)
	g := make([]string, n)
	for i := 0; i < n; i++ {
		if i < 100 {
			g[i] = "G1"
		} else {
			g[i] = "G2"
		}
		a[i] = "f"
	}
	for i := 0; i < 50; i++ { // 50/100 of G1
		a[i] = "t"
	}
	for i := 100; i < 162; i++ { // 62/100 of G2
		a[i] = "t"
	}
	return dataset.NewBuilder("borderline").
		AddCategorical("a", a).
		SetGroups(g).
		MustBuild()
}

// TestExplainGoldenChiSquarePruned pins the chain of a chi-square-pruned
// pattern (acceptance case b): large enough, but the test cannot reject
// independence at the Bonferroni-adjusted level.
func TestExplainGoldenChiSquarePruned(t *testing.T) {
	d := chiSquareBorderline(t)
	res := tracedMine(d, Config{})
	set := pattern.NewItemset(item(d, "a", "t"))
	x := Explain(res.Trace, set)
	if x.Verdict != "pruned (not_significant)" {
		t.Fatalf("verdict = %q, want pruned (not_significant)", x.Verdict)
	}
	got := x.Format(d)
	want := `pattern: a = t
verdict: pruned (not_significant)
decisions:
  - level 1: evaluated (112 rows, group counts [50 62])
  - level 1: cut by not_significant (observed 0.08737528034076769 vs bound 0.025)
`
	if got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainGoldenDependent pins the chain of an independently
// unproductive pattern (acceptance case c): {depth, shear} is mined and
// admitted, then filtered because the full hurricane conjunction explains
// it (§4.3).
func TestExplainGoldenDependent(t *testing.T) {
	d := hurricaneData(t)
	res := tracedMine(d, Config{})
	set := pattern.NewItemset(item(d, "depth", "yes"), item(d, "shear", "yes"))
	got := Explain(res.Trace, set).Format(d)
	want := `pattern: depth = yes and shear = yes
verdict: filtered (dependent)
decisions:
  - level 2: evaluated (1464 rows, group counts [795 669])
  - level 2: emitted as contrast (score 0.723983597072453, chi2 2332.92434292462, p 0)
  - top-k admitted (threshold -Inf -> -Inf)
  - meaningfulness filter: dependent (score 0.723983597072453) explained by temp = yes and depth = yes and shear = yes
`
	if got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainSubsumedAndUnseen covers the fallback verdicts: a pattern
// whose space was never enumerated because a subset was cut reports the
// subset's prune events; a pattern outside the trace entirely is unseen.
func TestExplainSubsumedAndUnseen(t *testing.T) {
	d := femalePregnant(t)
	res := tracedMine(d, Config{})
	// {sex=male, pregnant=yes}: sex=male was cut at level 1 (not_large),
	// so the combination never generated events of its own.
	set := pattern.NewItemset(item(d, "sex", "male"), item(d, "pregnant", "yes"))
	x := Explain(res.Trace, set)
	if x.Verdict != "subsumed (pruned subset)" {
		t.Fatalf("verdict = %q, want subsumed (pruned subset)", x.Verdict)
	}
	if len(x.Events) != 0 || len(x.Subset) == 0 {
		t.Errorf("subsumed pattern must carry subset events only: %d own, %d subset",
			len(x.Events), len(x.Subset))
	}
	for _, e := range x.Subset {
		if e.Kind != trace.KindPrune {
			t.Errorf("subset chain carries non-prune event %+v", e)
		}
	}

	// An empty trace knows nothing about any pattern.
	u := Explain(&trace.Trace{}, set)
	if u.Verdict != "unseen" || len(u.Events) != 0 || len(u.Subset) != 0 {
		t.Errorf("empty trace: %+v", u)
	}
}

// TestExplainPrunedLookupTable covers the composite-arg rendering: a
// pattern cut by the lookup table names the pruned subset that caused it.
func TestExplainPrunedLookupTable(t *testing.T) {
	d := hurricaneData(t)
	res := tracedMine(d, Config{})
	set := pattern.NewItemset(item(d, "temp", "yes"), item(d, "depth", "no"))
	got := Explain(res.Trace, set).Format(d)
	want := `pattern: temp = yes and depth = no
verdict: pruned (lookup_table)
decisions:
  - level 2: cut by lookup_table (observed 0 vs bound 0) via subset depth = no
`
	if got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainFormatNilDataset pins the raw-key fallback used when no
// dataset is available to render patterns.
func TestExplainFormatNilDataset(t *testing.T) {
	d := hurricaneData(t)
	res := tracedMine(d, Config{})
	set := pattern.NewItemset(item(d, "temp", "yes"), item(d, "depth", "no"))
	got := Explain(res.Trace, set).Format(nil)
	want := `pattern: 0=0|1=1
verdict: pruned (lookup_table)
decisions:
  - level 2: cut by lookup_table (observed 0 vs bound 0) via subset 1=1
`
	if got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainIncompleteTrace covers a trace that overflowed its
// four-event ring. The emitted hurricane conjunction has no events left,
// so it must be reported incomplete, not unseen or subsumed; temp = yes
// lost everything after its emission, so its provisional verdict comes
// with a warning that later decisions may be missing.
func TestExplainIncompleteTrace(t *testing.T) {
	d := hurricaneData(t)
	res := Mine(d, Config{Workers: 1, Trace: trace.New(4), Measure: pattern.SurprisingMeasure})
	if res.Trace.Dropped != 46 {
		t.Fatalf("a four-event ring dropped %d events, want 46", res.Trace.Dropped)
	}
	conj := pattern.NewItemset(
		item(d, "temp", "yes"), item(d, "depth", "yes"), item(d, "shear", "yes"))
	x := Explain(res.Trace, conj)
	if x.Dropped != 46 {
		t.Errorf("Dropped = %d, want 46", x.Dropped)
	}
	want := `pattern: temp = yes and depth = yes and shear = yes
verdict: incomplete (46 events dropped)
`
	if got := x.Format(d); got != want {
		t.Errorf("conjunction:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	got := Explain(res.Trace, pattern.NewItemset(item(d, "temp", "yes"))).Format(d)
	want = `pattern: temp = yes
verdict: discarded (tentative)
trace: 46 events dropped on overflow; later decisions may be missing
decisions:
  - level 1: evaluated (3036 rows, group counts [2367 669])
  - level 1: emitted as contrast (score 0.30912849076029003, chi2 735.0977910543372, p 6.977848615653517e-162)
`
	if got != want {
		t.Errorf("temp = yes:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
