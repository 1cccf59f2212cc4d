package core

import (
	"fmt"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
)

func BenchmarkMineMixed(b *testing.B) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 1, Bachelors: 2000, Doctorate: 300})
	attrs := []int{d.AttrIndex("age"), d.AttrIndex("hours_per_week"), d.AttrIndex("occupation")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mine(d, Config{Attrs: attrs, MaxDepth: 2})
	}
}

// BenchmarkMineContinuousShape and BenchmarkMineCategoricalShape mine the
// two dataset shapes of the repository benchmark's mine workloads (the
// same datagen.UCISpec sizes, other seeds), and BenchmarkMineStreamShape
// the size of one stream-drift window, at 1 and at 2 workers — the
// repository benchmark mines at one worker per CPU — so a CPU or
// allocation profile of any needs no separate harness:
//
//	go test -run '^$' -bench 'MineContinuousShape/workers=1' -benchtime 20x \
//		-cpuprofile cpu.out -memprofile mem.out ./internal/core
func BenchmarkMineContinuousShape(b *testing.B) {
	d := datagen.Planted(datagen.UCISpec{Name: "continuous-shape", Group0: "spam", Group1: "ham",
		N0: 900, N1: 700, Cat: 2, Cont: 24, Strength: 0.5, Seed: 11})
	benchMineShape(b, d, 2)
}

func BenchmarkMineCategoricalShape(b *testing.B) {
	d := datagen.Planted(datagen.UCISpec{Name: "categorical-shape", Group0: "a", Group1: "b",
		N0: 18000, N1: 14000, Cat: 24, Cont: 0, Strength: 0.5, Seed: 12})
	benchMineShape(b, d, 3)
}

// BenchmarkMineStreamShape mines a 1,000-row, 14-feature manufacturing
// window, where most SDAD-CS runs start from a categorical cover.
func BenchmarkMineStreamShape(b *testing.B) {
	d := datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: 13, Population: 800, Failed: 200, Features: 14})
	benchMineShape(b, d, 2)
}

func benchMineShape(b *testing.B, d *dataset.Dataset, depth int) {
	Mine(d, Config{MaxDepth: depth}) // builds the dataset's shared bitmap index outside the timer
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{MaxDepth: depth, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Mine(d, cfg)
			}
		})
	}
}

func BenchmarkOptimisticEstimate(b *testing.B) {
	sup := pattern.CountsToSupports([]int{340, 120}, []int{1000, 800})
	for i := 0; i < b.N; i++ {
		optimisticEstimate(sup, 460, 2, OEModePaper, pattern.SupportDiff)
	}
}

func BenchmarkClassify(b *testing.B) {
	d := datagen.Simulated4(3, 2000)
	res := Mine(d, Config{SkipMeaningfulFilter: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Classify(d, res.Contrasts, 0.05)
	}
}

func BenchmarkPruneTableSubsetLookup(b *testing.B) {
	table := make(pruneTable)
	table.insert(pattern.NewItemset(pattern.CatItem(2, 1)))
	set := pattern.NewItemset(
		pattern.CatItem(0, 1),
		pattern.RangeItem(1, 0, 5),
		pattern.CatItem(2, 1),
		pattern.RangeItem(3, 2, 8),
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.prunedSubset(set)
	}
}

// BenchmarkMergeHeavy guards the bottom-up merge against the former
// restart-everything rescan (O(n³) chi-square evaluations on merge-heavy
// windows): a long chain of contiguous, similar spaces that collapses into
// one. With failure memoization and ordered insertion each distinct pair
// is evaluated at most once.
func BenchmarkMergeHeavy(b *testing.B) {
	cfg := Config{}
	cfg.defaults()
	cfg.Delta = 0.001
	sizes := []int{6000, 6000}
	r := &sdadRun{cfg: &cfg, alpha: cfg.Alpha, sizes: sizes}
	spaces := mergeChain(64, []int{60, 6}, sizes, &cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.merge(spaces); len(got) != 1 {
			b.Fatalf("chain did not collapse: %d spaces", len(got))
		}
	}
}

// BenchmarkMineMixedMetrics pairs BenchmarkMineMixed with and without a
// recorder, proving the disabled path stays benchmark-neutral and the
// enabled path's overhead is bounded.
func BenchmarkMineMixedMetrics(b *testing.B) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 1, Bachelors: 2000, Doctorate: 300})
	attrs := []int{d.AttrIndex("age"), d.AttrIndex("hours_per_week"), d.AttrIndex("occupation")}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Mine(d, Config{Attrs: attrs, MaxDepth: 2})
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Mine(d, Config{Attrs: attrs, MaxDepth: 2, Metrics: metrics.New()})
		}
	})
}
