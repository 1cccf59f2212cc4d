package engine_test

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"sdadcs/internal/engine"
	"sdadcs/internal/oracle"
	"sdadcs/internal/trace"
)

const sdadcsTraceGoldenPath = "testdata/sdadcs_trace.golden"

// TestSDADCSTraceGolden pins every decision event SDAD-CS records on the
// six oracle shapes: kind, level, itemset key, argument, the three
// payloads and the group counts. Sequence numbers, timestamps and worker
// IDs vary between runs, and so does the wall time the level and sdad
// spans carry in V3; those are left out. The file holds the Workers 1
// trace in sequence order. Parallel level workers interleave their events,
// so the Workers 8 trace must hold the same event lines as a multiset.
// Regenerate with -update only for a deliberate change of what SDAD-CS
// records.
func TestSDADCSTraceGolden(t *testing.T) {
	var got bytes.Buffer
	for seed := int64(0); seed < baselineGoldenSeeds; seed++ {
		var lines [2][]string
		for i, workers := range []int{1, 8} {
			res, err := engine.Mine(oracle.Generate(seed), engine.Config{
				Algorithm: "sdadcs",
				Workers:   workers,
				Trace:     trace.New(1 << 18),
			})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if res.Trace.Dropped != 0 {
				t.Fatalf("seed %d workers %d: %d trace events dropped", seed, workers, res.Trace.Dropped)
			}
			lines[i] = traceEventLines(res.Trace)
		}
		fmt.Fprintf(&got, "== sdadcs seed=%d events=%d\n", seed, len(lines[0]))
		for _, l := range lines[0] {
			got.WriteString(l)
		}
		slices.Sort(lines[0])
		slices.Sort(lines[1])
		if !slices.Equal(lines[0], lines[1]) {
			t.Errorf("seed %d: Workers 1 and 8 record different event multisets (%d vs %d events)",
				seed, len(lines[0]), len(lines[1]))
		}
	}
	if *update {
		if err := os.WriteFile(sdadcsTraceGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(sdadcsTraceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("SDAD-CS trace drifted from %s at line %d:\ngot:  %s\nwant: %s",
					sdadcsTraceGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("SDAD-CS trace drifted from %s: %d lines, want %d",
			sdadcsTraceGoldenPath, len(gl), len(wl))
	}
}

// traceEventLines renders each event of a trace as one line, in sequence
// order, with the span kinds' wall time masked.
func traceEventLines(tr *trace.Trace) []string {
	out := make([]string, len(tr.Events))
	for i, e := range tr.Events {
		v3 := fmtValue(e.V3)
		if e.Kind == trace.KindLevel || e.Kind == trace.KindSDAD {
			v3 = "-"
		}
		out[i] = fmt.Sprintf("event %s level=%d key=%q arg=%q v=%s,%s,%s counts=%s\n",
			e.Kind, e.Level, e.Key(), e.Arg, fmtValue(e.V1), fmtValue(e.V2), v3,
			strings.Trim(fmt.Sprint(e.GroupCounts()), "[]"))
	}
	return out
}
