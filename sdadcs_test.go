package sdadcs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"sdadcs"
)

const csvData = `x,y,label
0.1,0.9,A
0.2,0.8,A
0.3,0.7,A
0.4,0.6,A
0.9,0.1,B
0.8,0.2,B
0.7,0.3,B
0.6,0.4,B
0.15,0.85,A
0.25,0.75,A
0.35,0.65,A
0.45,0.55,A
0.95,0.05,B
0.85,0.15,B
0.75,0.25,B
0.65,0.35,B
0.12,0.88,A
0.22,0.78,A
0.32,0.68,A
0.42,0.58,A
0.92,0.08,B
0.82,0.18,B
0.72,0.28,B
0.62,0.38,B
`

func loadSample(t *testing.T) *sdadcs.Dataset {
	t.Helper()
	d, err := sdadcs.FromCSV(strings.NewReader(csvData), sdadcs.CSVOptions{GroupColumn: "label"})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPublicAPIEndToEnd(t *testing.T) {
	d := loadSample(t)
	res := sdadcs.Mine(d, sdadcs.Config{Measure: sdadcs.SurprisingMeasure})
	if len(res.Contrasts) == 0 {
		t.Fatal("no contrasts via the public API")
	}
	top := res.Contrasts[0]
	if top.Score < 0.9 {
		t.Errorf("top score = %v, want near 1 (perfectly separable)", top.Score)
	}
	if s := top.Format(d); !strings.Contains(s, "supp") {
		t.Errorf("Format = %q", s)
	}
}

func TestPublicAPIBuilder(t *testing.T) {
	d, err := sdadcs.NewBuilder("built").
		AddContinuous("v", []float64{1, 2, 3, 10, 11, 12}).
		AddCategorical("c", []string{"a", "a", "a", "b", "b", "b"}).
		SetGroups([]string{"G1", "G1", "G1", "G2", "G2", "G2"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 6 || d.NumAttrs() != 2 {
		t.Error("builder shape wrong")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	d := loadSample(t)

	sres, err := sdadcs.MineWith(context.Background(), d, sdadcs.MinerConfig{Algorithm: "subgroup"})
	if err != nil {
		t.Fatalf("subgroup baseline: %v", err)
	}
	if len(sres.Contrasts) == 0 {
		t.Error("subgroup baseline found nothing")
	}
	eres, err := sdadcs.MineWith(context.Background(), d, sdadcs.MinerConfig{Algorithm: "entropy"})
	if err != nil {
		t.Fatalf("entropy baseline: %v", err)
	}
	if eres.Binned == nil {
		t.Fatal("entropy baseline returned no binned dataset")
	}
	if len(eres.Contrasts) == 0 {
		t.Error("entropy baseline found nothing on separable data")
	}
	// MVD on 24 rows needs small bins to split; it must not crash.
	mres, err := sdadcs.MineWith(context.Background(), d, sdadcs.MinerConfig{Algorithm: "mvd", BinSize: 4})
	if err != nil {
		t.Fatalf("MVD baseline: %v", err)
	}
	if mres.Binned == nil {
		t.Fatal("MVD baseline returned no binned dataset")
	}
}

func TestPublicAPIClassify(t *testing.T) {
	d := loadSample(t)
	res := sdadcs.Mine(d, sdadcs.Config{SkipMeaningfulFilter: true})
	ms := sdadcs.Classify(d, res.Contrasts, 0.05)
	if len(ms) != len(res.Contrasts) {
		t.Fatal("classification length mismatch")
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	d := loadSample(t)
	var buf bytes.Buffer
	if err := sdadcs.WriteCSV(&buf, d, "label"); err != nil {
		t.Fatal(err)
	}
	d2, err := sdadcs.FromCSV(&buf, sdadcs.CSVOptions{GroupColumn: "label"})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Rows() != d.Rows() {
		t.Error("round trip changed rows")
	}
}

func TestPublicAPIItemConstructors(t *testing.T) {
	d, err := sdadcs.NewBuilder("ctor").
		AddContinuous("x", []float64{1, 2, 3, 4}).
		AddCategorical("c", []string{"a", "b", "a", "b"}).
		SetGroups([]string{"A", "A", "B", "B"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	set := sdadcs.NewItemset(sdadcs.RangeItem(0, 0, 2.5), sdadcs.CatItem(1, 0))
	if set.Len() != 2 {
		t.Fatal("itemset construction failed")
	}
	if got := set.Format(d); !strings.Contains(got, "c = a") {
		t.Errorf("Format = %q", got)
	}
}

func TestPublicAPISTUCCOAndDiscretized(t *testing.T) {
	d := loadSample(t)
	binned := sdadcs.Discretized(d, map[int][]float64{0: {0.5}, 1: {0.5}})
	res, err := sdadcs.MineWith(context.Background(), binned, sdadcs.MinerConfig{Algorithm: "stucco"})
	if err != nil {
		t.Fatalf("STUCCO: %v", err)
	}
	if len(res.Contrasts) == 0 {
		t.Error("STUCCO on binned separable data found nothing")
	}
}

func TestPublicAPIStreamMonitor(t *testing.T) {
	m, err := sdadcs.NewStreamMonitor(
		sdadcs.StreamSchema{Name: "s", Continuous: []string{"x"}},
		sdadcs.StreamConfig{WindowSize: 200, MineEvery: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		group := "A"
		if i%2 == 0 {
			group = "B"
		}
		x := float64(i % 10)
		if group == "A" {
			x += 10
		}
		if _, err := m.Append([]float64{x}, nil, group); err != nil {
			t.Fatal(err)
		}
	}
	if m.Mines() == 0 {
		t.Error("monitor never mined")
	}
	if len(m.Current()) == 0 {
		t.Error("no current patterns on separable stream")
	}
}

func TestPruningPresets(t *testing.T) {
	all := sdadcs.AllPruning()
	np := sdadcs.NPPruning()
	if !all.RedundancyCLT || np.RedundancyCLT {
		t.Error("presets wrong")
	}
}

// TestPublicAPITraceEndToEnd drives the whole tracing surface through the
// facade: a traced mine yields exactly the contrasts of an untraced one,
// Result.Trace holds the decision record, the top pattern's provenance is
// reconstructible from its canonical key alone, and both exporters accept
// the snapshot.
func TestPublicAPITraceEndToEnd(t *testing.T) {
	d := loadSample(t)
	base := sdadcs.Mine(d, sdadcs.Config{Measure: sdadcs.SurprisingMeasure})
	if base.Trace != nil {
		t.Fatal("untraced mine carries a trace snapshot")
	}

	cfg := sdadcs.Config{Measure: sdadcs.SurprisingMeasure, Trace: sdadcs.NewTracer(0)}
	res := sdadcs.Mine(d, cfg)
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Fatal("traced mine recorded no events")
	}
	if res.Trace.Dropped != 0 {
		t.Errorf("default capacity dropped %d events", res.Trace.Dropped)
	}
	// Tracing must not perturb the mining result.
	if len(res.Contrasts) != len(base.Contrasts) {
		t.Fatalf("traced mine found %d contrasts, untraced %d",
			len(res.Contrasts), len(base.Contrasts))
	}
	for i := range res.Contrasts {
		if res.Contrasts[i].Set.Key() != base.Contrasts[i].Set.Key() ||
			res.Contrasts[i].Score != base.Contrasts[i].Score {
			t.Errorf("contrast %d diverged under tracing", i)
		}
	}

	// Provenance via the canonical key: round-trip the top pattern's key
	// (continuous bounds use the exact binary encoding) and explain it.
	top := res.Contrasts[0]
	set, err := sdadcs.ParseItemsetKey(top.Set.Key())
	if err != nil {
		t.Fatal(err)
	}
	if set.Key() != top.Set.Key() {
		t.Errorf("key round trip broke: %q -> %q", top.Set.Key(), set.Key())
	}
	x := sdadcs.Explain(res.Trace, set)
	if x.Verdict != "emitted" {
		t.Errorf("top contrast explains as %q, want emitted", x.Verdict)
	}
	if !strings.Contains(x.Format(d), "verdict: emitted") {
		t.Errorf("Format output missing verdict: %q", x.Format(d))
	}

	// Exporters: JSONL round-trips event-for-event, Chrome is valid JSON.
	var jl bytes.Buffer
	if err := sdadcs.WriteTraceJSONL(&jl, res.Trace); err != nil {
		t.Fatal(err)
	}
	back, err := sdadcs.ReadTraceJSONL(&jl)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(res.Trace.Events) {
		t.Errorf("JSONL round trip lost events: %d -> %d",
			len(res.Trace.Events), len(back.Events))
	}
	var ch bytes.Buffer
	if err := sdadcs.WriteTraceChrome(&ch, res.Trace); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(ch.Bytes()) {
		t.Error("Chrome export is not valid JSON")
	}

	// Trace volume surfaces in the metrics snapshot when both are on.
	rec := sdadcs.NewMetricsRecorder()
	cfg.Metrics = rec
	cfg.Trace = sdadcs.NewTracer(0)
	sdadcs.Mine(d, cfg)
	snap := rec.Snapshot()
	if snap.TraceEvents == 0 || snap.TraceHighWater == 0 {
		t.Errorf("metrics snapshot missing trace volume: %+v", snap)
	}
}
