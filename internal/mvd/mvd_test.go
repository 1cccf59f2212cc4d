package mvd

import (
	"math"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/stucco"
)

func TestDiscretizeNoSignalMergesToOne(t *testing.T) {
	d := datagen.Simulated3(1, 2000)
	res := DiscretizeDataset(d, Config{})
	// Attribute 2 is pure noise: almost all of its ~19 initial boundaries
	// must merge away (a few false-positive blocks are inherent to the
	// repeated chi-square testing, as in the original MVD).
	a2 := d.AttrIndex("Attribute2")
	if len(res.Cuts[a2]) > 5 {
		t.Errorf("noise attribute kept %d cuts, want <= 5", len(res.Cuts[a2]))
	}
	// Attribute 1 must keep a boundary near 0.5.
	a1 := d.AttrIndex("Attribute1")
	if len(res.Cuts[a1]) == 0 {
		t.Fatal("separating attribute lost all cuts")
	}
	near := false
	for _, c := range res.Cuts[a1] {
		if math.Abs(c-0.5) < 0.05 {
			near = true
		}
	}
	if !near {
		t.Errorf("cuts on Attribute1 = %v, want one near 0.5", res.Cuts[a1])
	}
	if res.PairsEvaluated == 0 {
		t.Error("pair counter not wired up")
	}
}

func TestDiscretizeDetectsMultivariateBoundary(t *testing.T) {
	// The property Bay designed MVD for (and the paper credits it with on
	// Figure 3b): the XOR data has no univariate class signal, but the
	// attributes are contexts for each other, so boundaries survive.
	d := datagen.Simulated2(2, 3000)
	res := DiscretizeDataset(d, Config{})
	total := 0
	for _, cuts := range res.Cuts {
		total += len(cuts)
	}
	if total == 0 {
		t.Error("MVD should keep boundaries on interacting attributes")
	}
}

func TestMineFindsContrasts(t *testing.T) {
	d := datagen.Simulated1(3, 2000)
	disc := DiscretizeDataset(d, Config{})
	res := stucco.Mine(dataset.Discretized(d, disc.Cuts), stucco.Config{})
	if len(res.Contrasts) == 0 {
		t.Fatal("MVD baseline found no contrasts on separable data")
	}
	// On Simulated1 the inter-attribute correlation blocks merging of the
	// pure bins (the paper's §5.1 observation: "MVD misses this splitting
	// point"), so the top contrast is a narrow bin with modest support
	// difference — well below the perfect univariate contrast.
	if res.Contrasts[0].Score < 0.1 || res.Contrasts[0].Score > 0.9 {
		t.Errorf("top score = %v, want a modest fragment contrast", res.Contrasts[0].Score)
	}
	if res.Stats.PartitionsEvaluated == 0 || disc.PairsEvaluated == 0 {
		t.Error("work counters not wired up")
	}
}

func TestBinOfRowConsistency(t *testing.T) {
	d := datagen.Simulated3(4, 500)
	s := newAttrState(d, 0, 50)
	// Every row's bin range must actually contain the row's rank.
	for row := 0; row < d.Rows(); row++ {
		b := s.binOfRow(row)
		if b < 0 || b >= s.bins() {
			t.Fatalf("row %d: bin %d out of range", row, b)
		}
		r := s.rank[row]
		if r < s.starts[b] || r >= s.starts[b+1] {
			t.Fatalf("row %d: rank %d outside bin %d [%d,%d)",
				row, r, b, s.starts[b], s.starts[b+1])
		}
	}
}

func TestInitialBinsRespectTies(t *testing.T) {
	// Heavily tied data: boundaries must not split equal values.
	vals := make([]float64, 300)
	groups := make([]string, 300)
	for i := range vals {
		vals[i] = float64(i / 100) // three distinct values, 100 each
		groups[i] = []string{"A", "B"}[i%2]
	}
	d := dataset.NewBuilder("ties").AddContinuous("x", vals).SetGroups(groups).MustBuild()
	s := newAttrState(d, 0, 30)
	col := d.ContColumn(0)
	for b := 1; b < s.bins(); b++ {
		lo := s.starts[b]
		if col[s.sorted[lo]] == col[s.sorted[lo-1]] {
			t.Fatalf("boundary at %d splits tied value %v", lo, col[s.sorted[lo]])
		}
	}
}

func TestCutPointsAreBinMaxima(t *testing.T) {
	d := datagen.Simulated3(5, 1000)
	s := newAttrState(d, 0, 100)
	cuts := s.cutPoints(d)
	if len(cuts) != s.bins()-1 {
		t.Fatalf("cuts = %d, bins = %d", len(cuts), s.bins())
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Error("cuts not strictly increasing")
		}
	}
}

func TestDiscretizeDeterministic(t *testing.T) {
	d := datagen.Simulated1(6, 1500)
	a := DiscretizeDataset(d, Config{})
	b := DiscretizeDataset(d, Config{})
	for attr, cuts := range a.Cuts {
		if len(cuts) != len(b.Cuts[attr]) {
			t.Fatal("non-deterministic cut count")
		}
		for i := range cuts {
			if cuts[i] != b.Cuts[attr][i] {
				t.Fatal("non-deterministic cuts")
			}
		}
	}
}
