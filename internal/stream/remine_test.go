package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdadcs/internal/core"
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

// TestIncrementalRemineBattery is the 50-seed × 200-append battery of
// stream re-mining. The test keeps its own log of the rows it appended
// and, after every append that re-mined, checks the monitor against a
// reference window built from that log with dataset.Builder: the window
// the monitor mined must equal it, and the monitor's current patterns
// must be bit-identical (keys, counts, scores, χ², p, order) to a
// core.Mine over it. A due re-mine the monitor skips as unmineable must
// be one the reference cannot build either. Traffic is fully random
// (shifting domains, varying group sizes, NaN readings) with the re-mine
// cadence varied across seeds, so both still-filling and saturated
// windows are compared.
func TestIncrementalRemineBattery(t *testing.T) {
	const (
		window  = 48
		appends = 200
	)
	mining := core.Config{MaxDepth: 2}
	patterns := 0
	for seed := int64(0); seed < 50; seed++ {
		m, err := NewMonitor(testSchema(), Config{
			WindowSize: window,
			MineEvery:  window/4 + int(seed%5),
			Mining:     mining,
		})
		if err != nil {
			t.Fatalf("seed %d: NewMonitor: %v", seed, err)
		}
		ref := newRefLog(testSchema(), window)
		rng := rand.New(rand.NewSource(seed))
		fillChecks, saturatedChecks := 0, 0
		for i := 0; i < appends; i++ {
			before := m.Mines()
			cont, cat, group := randomRow(rng)
			_, err := m.Append(cont, cat, group)
			ref.add(cont, cat, group)
			if errors.Is(err, ErrWindowNotMineable) {
				if ref.dataset() != nil {
					t.Fatalf("seed %d append %d: mineable window reported unmineable", seed, i)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d append %d: %v", seed, i, err)
			}
			if m.Mines() == before {
				continue
			}
			if m.Len() < window {
				fillChecks++
			} else {
				saturatedChecks++
			}
			checkRemine(t, fmt.Sprintf("seed %d append %d", seed, i), m, ref, mining)
			patterns += len(m.Current())
		}
		if fillChecks == 0 || saturatedChecks == 0 {
			t.Fatalf("seed %d: compared %d filling and %d saturated windows; want both",
				seed, fillChecks, saturatedChecks)
		}
	}
	if patterns == 0 {
		t.Fatal("no re-mine found a pattern: the pattern check is vacuous")
	}
}
