package oracle

import (
	"fmt"
	"math"
	"math/rand"

	"sdadcs/internal/dataset"
)

// Shape selects the structural family of a generated dataset. Beyond the
// generic mixed shape, the harness concentrates on the three adversarial
// families where pruning-heavy miners historically hide bugs: windows
// dominated by a single group, constant-valued continuous columns (no
// split is ever possible), and duplicate-heavy data where most boxes sit
// right at the expected-count<5 boundary.
type Shape int

const (
	// ShapeMixed is the generic case: 2–3 groups, categorical and
	// continuous attributes with group-dependent shifts, tied values and
	// occasional missing readings.
	ShapeMixed Shape = iota
	// ShapeOneGroupDominant gives one group ~95% of the rows, the others a
	// handful — degenerate tables, tiny samples, NaN-prone statistics.
	ShapeOneGroupDominant
	// ShapeConstantColumn makes one or more continuous columns constant
	// (and one near-constant), so SDAD-CS cannot split them.
	ShapeConstantColumn
	// ShapeDuplicateHeavy draws rows from a pool of ~8 distinct prototypes
	// so supports cluster at a few values and ties dominate every median.
	ShapeDuplicateHeavy
	// ShapeTiedGrid restricts every continuous value to a 4-point grid —
	// maximal ties, the case the paper-mode optimistic estimate is
	// documented to over-prune and the conservative mode must survive.
	ShapeTiedGrid
	// ShapeSignedZero mixes −0 and +0 into every continuous column beside
	// uniform values, so medians land on a zero whose sign must not depend
	// on the order the values are visited in.
	ShapeSignedZero

	numShapes
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeMixed:
		return "mixed"
	case ShapeOneGroupDominant:
		return "one-group-dominant"
	case ShapeConstantColumn:
		return "constant-column"
	case ShapeDuplicateHeavy:
		return "duplicate-heavy"
	case ShapeTiedGrid:
		return "tied-grid"
	case ShapeSignedZero:
		return "signed-zero"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Generate builds the dataset for a seed, cycling through the shapes so a
// contiguous seed range covers every family.
func Generate(seed int64) *dataset.Dataset {
	return GenerateShape(seed, Shape(seed%int64(numShapes)))
}

// GenerateShape builds a small random mixed dataset of the given shape.
// Everything is driven by the seed; the same seed always yields the same
// dataset. Sizes are kept small enough for the exhaustive oracle.
func GenerateShape(seed int64, shape Shape) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed*7919 + int64(shape)))
	rows := 40 + rng.Intn(80)
	groups := 2 + rng.Intn(2)
	numCat := 1 + rng.Intn(2)
	numCont := 1 + rng.Intn(2)

	labels := make([]string, rows)
	switch shape {
	case ShapeOneGroupDominant:
		// ~95% of rows in group g0; the rest spread over the others.
		for i := range labels {
			if rng.Float64() < 0.95 {
				labels[i] = "g0"
			} else {
				labels[i] = fmt.Sprintf("g%d", 1+rng.Intn(groups-1))
			}
		}
		// Guarantee at least one row outside g0 so the dataset builds.
		labels[rows-1] = "g1"
	default:
		for i := range labels {
			labels[i] = fmt.Sprintf("g%d", rng.Intn(groups))
		}
		// Guarantee at least two groups appear.
		labels[0], labels[1] = "g0", "g1"
	}
	groupOf := func(i int) int {
		var g int
		fmt.Sscanf(labels[i], "g%d", &g)
		return g
	}

	// Duplicate-heavy data draws each row from a small prototype pool.
	var protoCat [][]int // [proto][attr]
	var protoCont [][]float64
	proto := make([]int, rows)
	if shape == ShapeDuplicateHeavy {
		pool := 4 + rng.Intn(5)
		protoCat = make([][]int, pool)
		protoCont = make([][]float64, pool)
		for p := 0; p < pool; p++ {
			protoCat[p] = make([]int, numCat)
			protoCont[p] = make([]float64, numCont)
			for a := 0; a < numCat; a++ {
				protoCat[p][a] = rng.Intn(3)
			}
			for a := 0; a < numCont; a++ {
				protoCont[p][a] = float64(rng.Intn(6))
			}
		}
		for i := range proto {
			proto[i] = rng.Intn(pool)
		}
	}

	b := dataset.NewBuilder(fmt.Sprintf("oracle-%s-%d", shape, seed))
	for a := 0; a < numCat; a++ {
		vals := make([]string, rows)
		domain := 2 + rng.Intn(2)
		for i := range vals {
			switch {
			case shape == ShapeDuplicateHeavy:
				vals[i] = fmt.Sprintf("v%d", protoCat[proto[i]][a])
			case rng.Float64() < 0.35:
				// Group-dependent value: real contrast structure.
				vals[i] = fmt.Sprintf("v%d", groupOf(i)%domain)
			default:
				vals[i] = fmt.Sprintf("v%d", rng.Intn(domain))
			}
		}
		b.AddCategorical(fmt.Sprintf("cat%d", a), vals)
	}
	for a := 0; a < numCont; a++ {
		vals := make([]float64, rows)
		for i := range vals {
			switch shape {
			case ShapeConstantColumn:
				if a == 0 {
					vals[i] = 3.5 // strictly constant
				} else {
					// Near-constant: one distinct outlier value.
					vals[i] = 1
					if i == rows/2 {
						vals[i] = 2
					}
				}
			case ShapeDuplicateHeavy:
				vals[i] = protoCont[proto[i]][a]
			case ShapeTiedGrid:
				vals[i] = float64(rng.Intn(4))
			case ShapeSignedZero:
				switch rng.Intn(3) {
				case 0:
					vals[i] = math.Copysign(0, -1)
				case 1:
					vals[i] = 0
				default:
					vals[i] = rng.Float64()*2 - 1
				}
			default:
				// Integer-ish values with a group-dependent shift force
				// ties at medians while planting real contrasts.
				vals[i] = float64(rng.Intn(8) + 2*groupOf(i))
				if rng.Float64() < 0.05 {
					vals[i] = math.NaN() // missing reading
				}
			}
		}
		b.AddContinuous(fmt.Sprintf("cont%d", a), vals)
	}
	b.SetGroups(labels)
	return b.MustBuild()
}
