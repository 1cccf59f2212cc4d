package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/pattern"
	"sdadcs/internal/report"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		{20, 10, 50},
		{40, 30, 75},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, pct, ok := tail(seq(tc.n))
		if !ok || v != tc.wantValue || pct != tc.wantPct {
			t.Errorf("tail(1..%d) = %v at p%v (ok %v), want %v at p%v", tc.n, v, pct, ok, tc.wantValue, tc.wantPct)
		}
	}
	for n := 2 * tailBeyond; n <= 300; n++ {
		xs := seq(n)
		v, _, _ := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail, want exactly %d", n, beyond, tailBeyond)
		}
	}
}

func TestTailNeedsEnoughSamples(t *testing.T) {
	for _, n := range []int{0, 1, 11, 2*tailBeyond - 1} {
		if _, _, ok := tail(seq(n)); ok {
			t.Errorf("tail of %d samples reported a value; want none", n)
		}
	}
	r := &run{values: map[string]float64{}}
	for _, m := range endToEnd {
		if m.name != "op_tail_s" {
			r.set(m.name, 1)
		}
	}
	r.tally.record(nil)
	r.setTail(seq(2*tailBeyond - 1))
	if _, ok := r.values["op_tail_s"]; ok {
		t.Error("setTail recorded op_tail_s from too few samples")
	}
	if _, err := r.result(); err == nil {
		t.Error("an untraced result without op_tail_s was accepted")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// statusServer answers every request with status and body.
func statusServer(t *testing.T, status int, body string) *serveEnv {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(hs.Close)
	return &serveEnv{r: &run{seed: 1}, url: hs.URL, client: hs.Client(), dsID: "ds_test"}
}

func TestErrorRatioCountsRefusalsStatusesAndWrongOutputs(t *testing.T) {
	var tl tally

	_, err := statusServer(t, http.StatusTooManyRequests, `{"error":"queue full"}`).submit(20)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("a 429 on submit gave %v, want a refusal error", err)
	}
	tl.record(err)

	_, err = statusServer(t, http.StatusInternalServerError, `{}`).register(0, 0)
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("a 500 on register gave %v, want a status error", err)
	}
	tl.record(err)

	// A 2xx whose content is wrong also fails the operation.
	noRootCause, _ := json.Marshal([]report.JSONContrast{{Items: []report.JSONItem{{Attribute: "tray_column", Value: "C3"}}}})
	tl.record(rootCause(noRootCause))
	tl.record(sameContrasts(nil, []pattern.Contrast{{Score: 1}}))

	tl.record(nil)
	tl.record(statusErr("submit", http.StatusAccepted, http.StatusAccepted))
	if tl.attempted != 6 || tl.failed != 4 || tl.ratio() != 4.0/6 {
		t.Errorf("tally = %d failed of %d (ratio %v), want 4 of 6", tl.failed, tl.attempted, tl.ratio())
	}

	withRootCause, _ := json.Marshal([]report.JSONContrast{{Items: []report.JSONItem{{Attribute: "CAM_entity", Value: "SCE"}}}})
	if err := rootCause(withRootCause); err != nil {
		t.Errorf("a result naming CAM_entity=SCE failed the check: %v", err)
	}
}

func TestFailedRunIsNotCorrect(t *testing.T) {
	r := &run{values: map[string]float64{}}
	for _, m := range endToEnd {
		r.set(m.name, 1)
	}
	r.tally.record(nil)
	r.tally.record(errors.New("wrong output"))
	res, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("result = %+v, want incorrect with 1 of 2 failed", res)
	}
}

func TestResultCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := &run{traced: traced, values: map[string]float64{}}
		for _, m := range endToEnd {
			r.set(m.name, 1)
		}
		r.tally.record(nil)
		res, err := r.result()
		if err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
			}
		}
	}
}

func TestSeededGenerationIsByteIdentical(t *testing.T) {
	gens := map[string]func(seed int64) ([]byte, error){
		"continuous":    func(s int64) ([]byte, error) { return csvOf(datagen.Planted(continuousSpec(s))) },
		"categorical":   func(s int64) ([]byte, error) { return csvOf(datagen.Planted(categoricalSpec(s))) },
		"manufacturing": func(s int64) ([]byte, error) { return csvOf(manufacturing(s)) },
		"variant":       func(s int64) ([]byte, error) { return csvOf(manufacturingVariant(s, 1, 2)) },
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different CSV bytes twice", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same CSV", name)
		}
	}

	t1, _ := newDriftTrace(7)
	t2, _ := newDriftTrace(7)
	for i := 0; i < 2*driftPeriod; i++ {
		c1, k1, g1 := t1.next()
		c2, k2, g2 := t2.next()
		if g1 != g2 || !slices.Equal(c1, c2) || !slices.Equal(k1, k2) {
			t.Fatalf("drift trace row %d differs between two traces of seed 7", i)
		}
	}
}

func TestSubSeedSeparatesInputs(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		for part := int64(0); part < 20; part++ {
			s := subSeed(seed, part)
			if s < 0 || seen[s] {
				t.Fatalf("subSeed(%d, %d) = %d: negative or repeated", seed, part, s)
			}
			seen[s] = true
		}
	}
}

func TestBlockRateIgnoresABurst(t *testing.T) {
	lat := make([]float64, 40)
	for i := range lat {
		lat[i] = 0.25
	}
	for i := 32; i < 40; i++ {
		lat[i] = 1 // one block slowed fourfold
	}
	if got := blockRate(lat, 8); got != 4 {
		t.Errorf("blockRate = %v, want 4 ops/s", got)
	}
	if got := blockRate(lat[:5], 8); got != 4 {
		t.Errorf("blockRate of a partial block = %v, want 4 ops/s", got)
	}
}

func TestReferenceSpeedScalesTimesAndRates(t *testing.T) {
	r := &run{calib: newCalibrator(1), values: map[string]float64{"setup_s": 2, "op_p50_s": 4, "ops_per_s": 10, "peak_rss_mb": 100}}
	r.atReferenceSpeed(0.5) // the host ran at half the reference speed
	want := map[string]float64{"setup_s": 1, "op_p50_s": 2, "ops_per_s": 20, "peak_rss_mb": 100}
	for name, v := range want {
		if r.values[name] != v {
			t.Errorf("%s = %v, want %v", name, r.values[name], v)
		}
	}
	if _, ok := r.values["op_tail_s"]; ok {
		t.Error("rescaling invented an op_tail_s that was never measured")
	}
}

func TestCalibratorSpeed(t *testing.T) {
	c := newCalibrator(2)
	c.samples = []float64{2 * calibRefSeconds, 4 * calibRefSeconds, 2 * calibRefSeconds}
	if got := c.speed(); got != 0.5 {
		t.Errorf("speed = %v, want 0.5 for a kernel twice as slow as the reference", got)
	}
	c.measure()
	if len(c.samples) != 4 || c.samples[3] <= 0 {
		t.Errorf("measure recorded %v", c.samples)
	}
}
