package entropy

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/stucco"
)

func TestDiscretizeCleanBoundary(t *testing.T) {
	// Class 0 below 10, class 1 above: one cut near 10.
	var values []float64
	var classes []int
	for i := 0; i < 100; i++ {
		values = append(values, float64(i)/10)
		classes = append(classes, 0)
		values = append(values, 10+float64(i)/10)
		classes = append(classes, 1)
	}
	cuts := Discretize(values, classes, 2)
	if len(cuts) != 1 {
		t.Fatalf("cuts = %v, want exactly one", cuts)
	}
	if cuts[0] < 9.9 || cuts[0] > 10.05 {
		t.Errorf("cut = %v, want ~10", cuts[0])
	}
}

func TestDiscretizeNoSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 500)
	classes := make([]int, 500)
	for i := range values {
		values[i] = rng.Float64()
		classes[i] = rng.Intn(2)
	}
	cuts := Discretize(values, classes, 2)
	if len(cuts) != 0 {
		t.Errorf("cuts on noise = %v, want none (MDL criterion)", cuts)
	}
}

func TestDiscretizeMultiInterval(t *testing.T) {
	// Three class bands need two cuts.
	var values []float64
	var classes []int
	for i := 0; i < 200; i++ {
		values = append(values, float64(i%100))
		classes = append(classes, 0)
		values = append(values, 100+float64(i%100))
		classes = append(classes, 1)
		values = append(values, 200+float64(i%100))
		classes = append(classes, 0)
	}
	cuts := Discretize(values, classes, 2)
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v, want two", cuts)
	}
	sort.Float64s(cuts)
	if math.Abs(cuts[0]-100) > 2 || math.Abs(cuts[1]-200) > 2 {
		t.Errorf("cuts = %v, want ~100 and ~200", cuts)
	}
}

func TestDiscretizeEdgeCases(t *testing.T) {
	if got := Discretize(nil, nil, 2); got != nil {
		t.Error("nil input should give nil cuts")
	}
	if got := Discretize([]float64{1}, []int{0}, 2); got != nil {
		t.Error("single value should give nil cuts")
	}
	// All values identical: no possible cut.
	if got := Discretize([]float64{2, 2, 2, 2}, []int{0, 1, 0, 1}, 2); len(got) != 0 {
		t.Errorf("identical values: cuts = %v", got)
	}
	// Pure class: no cut needed.
	if got := Discretize([]float64{1, 2, 3, 4}, []int{0, 0, 0, 0}, 2); len(got) != 0 {
		t.Errorf("pure class: cuts = %v", got)
	}
	// Mismatched lengths.
	if got := Discretize([]float64{1, 2}, []int{0}, 2); got != nil {
		t.Error("mismatched lengths should give nil")
	}
}

func TestDiscretizeDatasetAndMine(t *testing.T) {
	d := datagen.Simulated1(3, 2000)
	cuts := DiscretizeDataset(d)
	// Attribute 1 carries the class boundary at 0.5.
	a1 := d.AttrIndex("Attribute1")
	if len(cuts[a1]) == 0 {
		t.Fatal("no cut found on the separating attribute")
	}
	found := false
	for _, c := range cuts[a1] {
		if math.Abs(c-0.5) < 0.05 {
			found = true
		}
	}
	if !found {
		t.Errorf("cuts on Attribute1 = %v, want one near 0.5", cuts[a1])
	}

	res := stucco.Mine(dataset.Discretized(d, cuts), stucco.Config{})
	if len(res.Contrasts) == 0 {
		t.Fatal("entropy baseline found no contrasts on separable data")
	}
	if res.Contrasts[0].Score < 0.9 {
		t.Errorf("top score = %v, want ~1 (perfect separation)", res.Contrasts[0].Score)
	}
	if res.Stats.PartitionsEvaluated == 0 {
		t.Error("candidate counter not wired up")
	}
}

func TestEntropyMissesXOR(t *testing.T) {
	// The property the paper highlights: a univariate entropy discretizer
	// finds nothing on the X-shaped data (Figure 3b — "the entropy based
	// method does not find any bins for this dataset").
	d := datagen.Simulated2(4, 2000)
	cuts := DiscretizeDataset(d)
	total := 0
	for _, c := range cuts {
		total += len(c)
	}
	if total != 0 {
		t.Errorf("entropy found %d cuts on XOR data, expected none", total)
	}
}
