package stream

import (
	"math"
	"math/rand"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
)

// sameContrast compares two contrasts bit-for-bit: itemset key, score,
// χ², p, and support vectors.
func sameContrast(a, b pattern.Contrast) bool {
	if a.Set.Key() != b.Set.Key() ||
		math.Float64bits(a.Score) != math.Float64bits(b.Score) ||
		math.Float64bits(a.ChiSq) != math.Float64bits(b.ChiSq) ||
		math.Float64bits(a.P) != math.Float64bits(b.P) ||
		len(a.Supports.Count) != len(b.Supports.Count) {
		return false
	}
	for g := range a.Supports.Count {
		if a.Supports.Count[g] != b.Supports.Count[g] || a.Supports.Size[g] != b.Supports.Size[g] {
			return false
		}
	}
	return true
}

// driveLockstep feeds the same rows to an incremental and a full-re-mine
// monitor and asserts bit-identical behavior at every append: same
// errors, same event streams (kind, format, scores), and at the end the
// same current pattern set.
func driveLockstep(t *testing.T, seed int64, inc, full *Monitor, appends int,
	row func(i int) ([]float64, []string, string)) {
	t.Helper()
	for i := 0; i < appends; i++ {
		cont, cat, group := row(i)
		cont2 := append([]float64(nil), cont...)
		cat2 := append([]string(nil), cat...)
		evA, errA := inc.Append(cont, cat, group)
		evB, errB := full.Append(cont2, cat2, group)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d append %d: err %v vs %v", seed, i, errA, errB)
		}
		if len(evA) != len(evB) {
			t.Fatalf("seed %d append %d: %d events vs %d", seed, i, len(evA), len(evB))
		}
		for j := range evA {
			if evA[j].Kind != evB[j].Kind || evA[j].Format != evB[j].Format ||
				math.Float64bits(evA[j].PrevScore) != math.Float64bits(evB[j].PrevScore) ||
				!sameContrast(evA[j].Contrast, evB[j].Contrast) {
				t.Fatalf("seed %d append %d event %d:\n  inc:  %+v\n  full: %+v",
					seed, i, j, evA[j], evB[j])
			}
		}
	}
	a, b := inc.Current(), full.Current()
	if len(a) != len(b) {
		t.Fatalf("seed %d: %d patterns vs %d", seed, len(a), len(b))
	}
	for j := range a {
		if !sameContrast(a[j], b[j]) {
			t.Fatalf("seed %d pattern %d: %s=%v vs %s=%v",
				seed, j, a[j].Set.Key(), a[j].Score, b[j].Set.Key(), b[j].Score)
		}
	}
	if inc.Mines() != full.Mines() || inc.SkippedMines() != full.SkippedMines() {
		t.Fatalf("seed %d: mines %d/%d vs %d/%d",
			seed, inc.Mines(), inc.SkippedMines(), full.Mines(), full.SkippedMines())
	}
}

// TestIncrementalRemineBattery is the 50-seed × 200-append oracle battery
// of the incremental re-evaluation gate: a monitor using
// core.MineIncremental must be bit-identical — patterns, counts, scores,
// χ², tie-breaks, event streams — to one forced through full re-mines by
// the DisableIncrementalRemine escape hatch, under fully random traffic
// (shifting domains, varying group sizes, NaN readings, re-mines during
// fill and after saturation).
func TestIncrementalRemineBattery(t *testing.T) {
	const (
		window  = 48
		appends = 200
	)
	for seed := int64(0); seed < 50; seed++ {
		mk := func(fullOnly bool) *Monitor {
			m, err := NewMonitor(testSchema(), Config{
				WindowSize:               window,
				MineEvery:                window/4 + int(seed%5),
				DisableIncrementalRemine: fullOnly,
				Mining:                   core.Config{MaxDepth: 2},
			})
			if err != nil {
				t.Fatalf("seed %d: NewMonitor: %v", seed, err)
			}
			return m
		}
		inc, full := mk(false), mk(true)
		rng := rand.New(rand.NewSource(seed))
		driveLockstep(t, seed, inc, full, appends, func(int) ([]float64, []string, string) {
			return randomRow(rng)
		})
	}
}

// cyclicRow returns row i of a periodic trace (period 8) over the test
// schema: fixed machines, shifts and groups, machine-dependent base
// temperatures. perturb != nil may replace the continuous values.
func cyclicRow(i int, perturb func(i int, machine string, cont []float64)) ([]float64, []string, string) {
	machines := [8]string{"m0", "m0", "m1", "m1", "m2", "m2", "m0", "m1"}
	shifts := [8]string{"day", "day", "day", "night", "night", "night", "night", "day"}
	grps := [8]string{"ok", "ok", "fail", "ok", "fail", "degraded", "fail", "ok"}
	base := [8]float64{18, 19, 24, 25, 31, 32, 20, 26}
	k := i % 8
	cont := []float64{base[k], 1.5 + float64(k)*0.1}
	if perturb != nil {
		perturb(i, machines[k], cont)
	}
	return cont, []string{machines[k], shifts[k]}, grps[k]
}

// stableTraceConfig aligns window and cadence to the trace period so
// consecutive saturated windows hold identical row sequences (identical
// fingerprints): window 48 and MineEvery 16 are both multiples of 8.
func stableTraceConfig(rec *metrics.Recorder, fullOnly bool) Config {
	return Config{
		WindowSize:               48,
		MineEvery:                16,
		DisableIncrementalRemine: fullOnly,
		Mining:                   core.Config{MaxDepth: 2, Metrics: rec},
	}
}

// toolStationRow returns row i of the aligned period-8 trace with two
// more categorical attributes (tool, station). Machine m2's rows carry
// their own tool (t4) and station (s2) values, and only m2's temperature
// drifts, with period 7 — coprime to the window/cadence alignment, so
// consecutive windows always differ in m2's readings (the dirty subtree)
// and nowhere else. The rest of the categorical lattice stays provably
// untouched, the shape real stable regimes have.
func toolStationRow(i int) ([]float64, []string, string) {
	tools := [8]string{"t0", "t1", "t2", "t3", "t4", "t4", "t0", "t2"}
	stations := [8]string{"s0", "s0", "s1", "s1", "s2", "s2", "s3", "s3"}
	cont, cat, group := cyclicRow(i, func(i int, machine string, cont []float64) {
		if machine == "m2" {
			cont[0] += 0.25 * float64(i%7)
		}
	})
	return cont, append(cat, tools[i%8], stations[i%8]), group
}

// TestIncrementalRemineStableRegime drives aligned cyclic traces whose
// perturbation is confined to machine m2's temperature readings: the
// incremental monitor must stay bit-identical to the full one while
// provably replaying the untouched part of the frontier (stable nodes
// recorded, node evaluations saved). On the four-attribute trace the
// full monitor must evaluate at least 1.5× the nodes the incremental one
// does; node evaluation counts are deterministic for a trace.
func TestIncrementalRemineStableRegime(t *testing.T) {
	cases := []struct {
		name    string
		schema  Schema
		appends int
		row     func(i int) ([]float64, []string, string)
		// minRatio bounds full/incremental node evaluations from below;
		// 0 only requires the incremental monitor to evaluate fewer.
		minRatio float64
	}{
		{
			name:    "machine-shift",
			schema:  testSchema(),
			appends: 400,
			row: func(i int) ([]float64, []string, string) {
				return cyclicRow(i, func(i int, machine string, cont []float64) {
					if machine == "m2" {
						cont[0] += 0.25 * float64(i%5) // drifts between windows
					}
				})
			},
		},
		{
			name: "machine-shift-tool-station",
			schema: Schema{
				Name:        "line",
				Continuous:  []string{"temp", "pressure"},
				Categorical: []string{"machine", "shift", "tool", "station"},
			},
			appends:  960,
			row:      toolStationRow,
			minRatio: 1.5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recInc, recFull := metrics.New(), metrics.New()
			mk := func(rec *metrics.Recorder, fullOnly bool) *Monitor {
				m, err := NewMonitor(tc.schema, stableTraceConfig(rec, fullOnly))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			inc, full := mk(recInc, false), mk(recFull, true)
			driveLockstep(t, 0, inc, full, tc.appends, tc.row)

			si, sf := recInc.Snapshot(), recFull.Snapshot()
			if si.GateStableNodes == 0 {
				t.Fatalf("aligned trace replayed nothing: stable=%d dirty=%d", si.GateStableNodes, si.GateDirtyNodes)
			}
			if si.GateDirtyNodes == 0 {
				t.Fatal("perturbed trace recorded no dirty nodes")
			}
			if si.ReminesInc == 0 || si.ReminesFull != 0 {
				t.Fatalf("incremental monitor modes: inc=%d full=%d", si.ReminesInc, si.ReminesFull)
			}
			if sf.ReminesFull == 0 || sf.ReminesInc != 0 {
				t.Fatalf("full monitor modes: inc=%d full=%d", sf.ReminesInc, sf.ReminesFull)
			}
			if si.NodeEval.Count >= sf.NodeEval.Count {
				t.Fatalf("incremental path saved no node evaluations: %d vs %d",
					si.NodeEval.Count, sf.NodeEval.Count)
			}
			ratio := float64(sf.NodeEval.Count) / float64(si.NodeEval.Count)
			t.Logf("node evaluations: full %d, incremental %d (%.2fx)",
				sf.NodeEval.Count, si.NodeEval.Count, ratio)
			if ratio < tc.minRatio {
				t.Fatalf("full/incremental node evaluations %.2f < %.2f", ratio, tc.minRatio)
			}
		})
	}
}

// TestIncrementalRemineZeroDelta: with the trace purely cyclic, every
// saturated aligned window is row-for-row identical to the previous one —
// once the state carries over, re-mines must replay the entire frontier
// (no dirty nodes, no node evaluations at all).
func TestIncrementalRemineZeroDelta(t *testing.T) {
	rec := metrics.New()
	m, err := NewMonitor(testSchema(), stableTraceConfig(rec, false))
	if err != nil {
		t.Fatal(err)
	}
	feedRows := func(n int, from int) {
		for i := from; i < from+n; i++ {
			cont, cat, group := cyclicRow(i, nil)
			if _, err := m.Append(cont, cat, group); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
	}
	// Warm up through fill and the first two saturated re-mines (the
	// second is the first with a matching fingerprint to replay from).
	feedRows(48+2*16, 0)
	before := rec.Snapshot()
	feedRows(10*16, 48+2*16) // ten more aligned, identical windows
	after := rec.Snapshot()

	if after.ReminesInc-before.ReminesInc != 10 {
		t.Fatalf("expected 10 re-mines, got %d", after.ReminesInc-before.ReminesInc)
	}
	if after.GateDirtyNodes != before.GateDirtyNodes {
		t.Fatalf("identical windows produced %d dirty nodes",
			after.GateDirtyNodes-before.GateDirtyNodes)
	}
	if after.GateStableNodes == before.GateStableNodes {
		t.Fatal("identical windows replayed nothing")
	}
	if after.NodeEval.Count != before.NodeEval.Count {
		t.Fatalf("identical windows still evaluated %d nodes",
			after.NodeEval.Count-before.NodeEval.Count)
	}
}
