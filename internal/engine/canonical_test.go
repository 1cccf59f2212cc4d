package engine_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/engine"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

const canonicalKeysGoldenPath = "testdata/canonical_keys.golden"

// TestCanonicalKeysGolden pins the bytes of every algorithm's canonical
// key and config_hash for the zero config, an unbounded top-k, and a
// config with every field set. The keys address the serving layer's
// result cache and its clients' config_hash values, so a change here is a
// documented break; regenerate with -update only for one.
func TestCanonicalKeysGolden(t *testing.T) {
	configs := []struct {
		label string
		cfg   engine.Config
	}{
		{"zero", engine.Config{}},
		{"unbounded", engine.Config{TopK: engine.TopKUnbounded}},
		{"every-field", engine.Config{
			Alpha:                0.01,
			Delta:                0.2,
			MaxDepth:             3,
			TopK:                 7,
			Workers:              4,
			Measure:              pattern.SurprisingMeasure,
			MaxRecursion:         5,
			OEMode:               core.OEModeConservative,
			NP:                   true,
			SkipMeaningfulFilter: true,
			Attrs:                []int{4, 0, 2},
			BeamWidth:            30,
			Bins:                 6,
			MinCoverage:          9,
			MinQuality:           0.02,
			BinSize:              40,
			MaxSweeps:            12,
			Metrics:              metrics.New(),
			Trace:                trace.New(1 << 4),
		}},
	}
	var got bytes.Buffer
	for _, alg := range engine.Algorithms() {
		for _, c := range configs {
			cfg := c.cfg
			cfg.Algorithm = alg
			fmt.Fprintf(&got, "%s %s %s\n  %s\n", alg, c.label, cfg.CanonicalHash(), cfg.CanonicalKey())
		}
	}
	if *update {
		if err := os.WriteFile(canonicalKeysGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(canonicalKeysGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("canonical keys drifted from %s:\ngot:\n%swant:\n%s", canonicalKeysGoldenPath, got.Bytes(), want)
	}
}
