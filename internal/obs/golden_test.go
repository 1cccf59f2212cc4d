package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"sdadcs/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

const minerGoldenPath = "testdata/miner_families.golden.prom"

// TestMinerFamiliesGolden pins the Prometheus rendering of the fully
// populated snapshot whose JSON internal/metrics pins, so a family's
// name, help, type and value cannot change without a reviewed diff.
func TestMinerFamiliesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, MinerFamilies("sdadcs_miner_", MinerSeries{Snapshot: goldenSnapshot(t)})); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("miner exposition fails strict parse: %v\n%s", err, buf.String())
	}
	if *update {
		if err := os.WriteFile(minerGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(minerGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("miner exposition drifted from %s:\n got\n%s want\n%s", minerGoldenPath, buf.String(), want)
	}
}

// goldenSnapshot decodes the fully populated snapshot internal/metrics
// pins: every plain counter distinct and non-zero.
func goldenSnapshot(t *testing.T) metrics.Snapshot {
	t.Helper()
	raw, err := os.ReadFile("../metrics/testdata/snapshot.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}
