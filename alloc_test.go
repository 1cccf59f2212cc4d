package sdadcs_test

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/subgroup"
	"sdadcs/internal/trace"
)

// allocTolerance is the relative slack, in both directions, between a
// measured allocation count and its pinned value.
const allocTolerance = 0.005

// TestAllocRatchet pins the allocations per call of the two benchmark
// mine shapes at one worker, of the continuous shape mined with a
// default-capacity decision tracer (as a serve job's trace replay is), of
// the subgroup beam search on a 1,000-row Adult at default settings, and
// of loading each mine shape from CSV against testdata/allocs.txt.
// Allocation counts, unlike wall times, do
// not vary between runs, so a regression fails here on every push. Map
// internals change the counts between Go releases, so the file names the
// toolchain it was recorded with and the test skips on any other. A change
// that lowers a count lowers its line; one that raises a count says why.
func TestAllocRatchet(t *testing.T) {
	toolchain, want := readAllocs(t, "testdata/allocs.txt")
	if runtime.Version() != toolchain {
		t.Skipf("allocation counts are pinned for %s; this is %s", toolchain, runtime.Version())
	}
	cont := datagen.Planted(datagen.UCISpec{Name: "continuous-shape", Group0: "spam", Group1: "ham",
		N0: 900, N1: 700, Cat: 2, Cont: 24, Strength: 0.5, Seed: 11})
	cat := datagen.Planted(datagen.UCISpec{Name: "categorical-shape", Group0: "a", Group1: "b",
		N0: 18000, N1: 14000, Cat: 24, Cont: 0, Strength: 0.5, Seed: 12})
	adult := datagen.Adult(datagen.AdultConfig{Seed: 1, Bachelors: 930, Doctorate: 70})
	var csv, contCSV bytes.Buffer
	if err := dataset.WriteCSV(&csv, cat, "group"); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(&contCSV, cont, "group"); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]func(){
		"mine-continuous-shape":  func() { core.Mine(cont, core.Config{MaxDepth: 2, Workers: 1}) },
		"mine-categorical-shape": func() { core.Mine(cat, core.Config{MaxDepth: 3, Workers: 1}) },
		"mine-continuous-shape-traced": func() {
			core.Mine(cont, core.Config{MaxDepth: 2, Workers: 1, Trace: trace.New(0)})
		},
		"subgroup-adult-shape": func() { subgroup.Mine(adult, subgroup.Config{}) },
		"fromcsv-categorical-shape": func() {
			if _, err := dataset.FromCSV(bytes.NewReader(csv.Bytes()), dataset.CSVOptions{GroupColumn: "group"}); err != nil {
				t.Fatal(err)
			}
		},
		"fromcsv-continuous-shape": func() {
			if _, err := dataset.FromCSV(bytes.NewReader(contCSV.Bytes()), dataset.CSVOptions{GroupColumn: "group"}); err != nil {
				t.Fatal(err)
			}
		},
	}
	if len(want) != len(workloads) {
		t.Fatalf("testdata/allocs.txt pins %d workloads, the test measures %d", len(want), len(workloads))
	}
	for name, run := range workloads {
		pinned, ok := want[name]
		if !ok {
			t.Fatalf("testdata/allocs.txt has no line for %s", name)
		}
		got := testing.AllocsPerRun(3, run)
		if math.Abs(got-pinned) > allocTolerance*pinned {
			t.Errorf("%s: %.0f allocs/op, pinned %.0f (±%.1f %%): lower the line if this is a cut, explain a rise",
				name, got, pinned, 100*allocTolerance)
		}
	}
}

// readAllocs parses the ratchet file: a "toolchain <version>" line and one
// "<workload> <allocs>" line per workload; '#' starts a comment line.
func readAllocs(t *testing.T, path string) (string, map[string]float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	toolchain, want := "", map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		if fields[0] == "toolchain" {
			toolchain = fields[1]
			continue
		}
		n, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want[fields[0]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if toolchain == "" {
		t.Fatalf("%s names no toolchain", path)
	}
	return toolchain, want
}
