package experiments

import (
	"fmt"
	"math"
	"time"

	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
)

// quantDatasets materializes the Table 2 datasets, optionally shrunk and
// filtered to opts.Only.
func quantDatasets(opts Options) []*dataset.Dataset {
	keep := func(name string) bool {
		if len(opts.Only) == 0 {
			return true
		}
		for _, n := range opts.Only {
			if n == name {
				return true
			}
		}
		return false
	}
	var out []*dataset.Dataset
	for _, s := range datagen.Table2Specs(opts.Seed) {
		if !keep(s.Name) {
			continue
		}
		s.N0 = opts.scaleRows(s.N0)
		s.N1 = opts.scaleRows(s.N1)
		out = append(out, datagen.UCIDataset(s))
	}
	return out
}

// Table4Row is one dataset's comparison of mean top-k support difference.
type Table4Row struct {
	Dataset string
	// Mean support difference of the top-k contrasts per algorithm.
	SDADNP, MVD, Entropy, Cortana float64
	// PValue vs. SDAD-CS NP (Wilcoxon–Mann–Whitney on the top-k score
	// distributions); an entry marked "*" in the paper has p >= 0.05.
	PMVD, PEntropy, PCortana float64
	// K is the comparison size: min(least result count, 100).
	K int
}

// Table4Result reproduces the quantitative analysis of contrast sets.
type Table4Result struct {
	Rows  []Table4Row
	Table Table
}

// Table4 runs the four algorithms on all ten datasets and compares the
// mean support difference of the top-k contrasts.
func Table4(opts Options) Table4Result {
	opts.defaults()
	var out Table4Result
	t := Table{
		Title: "Table 4: Quantitative Analysis — mean support difference of top-k" +
			" (* = not significantly different from SDAD-CS NP)",
		Header: []string{"dataset", "SDAD-CS NP", "MVD", "Entropy", "Cortana-Interval", "k"},
	}
	for _, d := range quantDatasets(opts) {
		row := table4Row(d, opts)
		out.Rows = append(out.Rows, row)
		t.Rows = append(t.Rows, []string{
			row.Dataset,
			fmt2(row.SDADNP),
			starNotSig(row.MVD, row.PMVD),
			starNotSig(row.Entropy, row.PEntropy),
			starNotSig(row.Cortana, row.PCortana),
			fmt.Sprintf("%d", row.K),
		})
	}
	out.Table = t
	return out
}

// starNotSig renders a comparison cell: the value, starred when it is NOT
// significantly different from the baseline. NaN-safe: a star means "not
// significantly different", which covers p >= 0.05 AND undecidable (NaN)
// comparisons — only a definite p < 0.05 suppresses the star.
func starNotSig(v, p float64) string {
	s := fmt2(v)
	if !(p < 0.05) {
		s += "*"
	}
	return s
}

func table4Row(d *dataset.Dataset, opts Options) Table4Row {
	np := run("SDAD-CS NP", d, engine.Config{Measure: pattern.SupportDiff, NP: true}, opts)
	mv := run("MVD", d, engine.Config{Algorithm: "mvd"}, opts)
	en := run("Entropy", d, engine.Config{Algorithm: "entropy"}, opts)
	co := run("Cortana-Interval", d, engine.Config{Algorithm: "subgroup"}, opts)

	// Rescore everything on support difference for a fair comparison.
	rescored := func(cs []pattern.Contrast) []pattern.Contrast {
		return pattern.Rescore(cs, pattern.SupportDiff)
	}
	csNP, csMV, csEN, csCO := rescored(np.Contrasts), rescored(mv.Contrasts),
		rescored(en.Contrasts), rescored(co.Contrasts)

	// k = the least number of contrasts any algorithm found, capped at
	// 100 (§5.6); algorithms that found nothing are skipped in the min so
	// one empty result does not zero the comparison.
	k := opts.TopK
	for _, cs := range [][]pattern.Contrast{csNP, csMV, csEN, csCO} {
		if len(cs) > 0 && len(cs) < k {
			k = len(cs)
		}
	}

	wmwP := func(cs []pattern.Contrast) float64 {
		a := pattern.TopScores(csNP, k)
		b := pattern.TopScores(cs, k)
		if len(a) == 0 || len(b) == 0 {
			// No comparison is possible; returning 0 here used to claim a
			// significant difference from an empty sample. NaN propagates
			// as "undecidable" and renders as starred (not significant).
			return math.NaN()
		}
		return stats.MannWhitney(a, b).P
	}
	return Table4Row{
		Dataset:  d.Name(),
		SDADNP:   pattern.MeanScore(csNP, k),
		MVD:      pattern.MeanScore(csMV, k),
		Entropy:  pattern.MeanScore(csEN, k),
		Cortana:  pattern.MeanScore(csCO, k),
		PMVD:     wmwP(csMV),
		PEntropy: wmwP(csEN),
		PCortana: wmwP(csCO),
		K:        k,
	}
}

// Table5Row is one dataset's cost comparison.
type Table5Row struct {
	Dataset   string
	TimeSDAD  time.Duration
	TimeMVD   time.Duration
	TimeNP    time.Duration
	PartsSDAD int
	PartsMVD  int
	PartsNP   int
}

// Table5Result reproduces the time / partitions-evaluated comparison.
type Table5Result struct {
	Rows  []Table5Row
	Table Table
}

// Table5 measures SDAD-CS, MVD and SDAD-CS NP on every dataset.
func Table5(opts Options) Table5Result {
	opts.defaults()
	var out Table5Result
	t := Table{
		Title: "Table 5: Time and number of partitions evaluated",
		Header: []string{"dataset", "t(SDAD-CS)", "t(MVD)", "t(SDAD-CS NP)",
			"parts(SDAD-CS)", "parts(MVD)", "parts(SDAD-CS NP)"},
	}
	for _, d := range quantDatasets(opts) {
		sd := run("SDAD-CS", d, engine.Config{Measure: pattern.SupportDiff}, opts)
		mv := run("MVD", d, engine.Config{Algorithm: "mvd"}, opts)
		np := run("SDAD-CS NP", d, engine.Config{Measure: pattern.SupportDiff, NP: true}, opts)
		row := Table5Row{
			Dataset:   d.Name(),
			TimeSDAD:  sd.Elapsed,
			TimeMVD:   mv.Elapsed,
			TimeNP:    np.Elapsed,
			PartsSDAD: sd.Partitions,
			PartsMVD:  mv.Partitions,
			PartsNP:   np.Partitions,
		}
		out.Rows = append(out.Rows, row)
		t.Rows = append(t.Rows, []string{
			row.Dataset,
			row.TimeSDAD.Round(time.Millisecond).String(),
			row.TimeMVD.Round(time.Millisecond).String(),
			row.TimeNP.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", row.PartsSDAD),
			fmt.Sprintf("%d", row.PartsMVD),
			fmt.Sprintf("%d", row.PartsNP),
		})
	}
	out.Table = t
	return out
}

// Table6Row is one dataset's meaningfulness tally.
type Table6Row struct {
	Dataset     string
	Meaningful  int
	Meaningless int
}

// Table6Result reproduces the meaningful-vs-meaningless count of the top
// patterns mined without the filter.
type Table6Result struct {
	Rows  []Table6Row
	Table Table
}

// Table6 mines each dataset without the meaningfulness filter and
// classifies the top patterns.
func Table6(opts Options) Table6Result {
	opts.defaults()
	var out Table6Result
	t := Table{
		Title:  "Table 6: Number of meaningful contrasts in the unfiltered top patterns",
		Header: []string{"dataset", "meaningful", "meaningless"},
	}
	for _, d := range quantDatasets(opts) {
		np := run("SDAD-CS NP", d, engine.Config{Measure: pattern.SupportDiff, NP: true}, opts)
		ms := core.Classify(d, np.Contrasts, 0.05)
		good, bad := core.CountMeaningful(ms)
		out.Rows = append(out.Rows, Table6Row{Dataset: d.Name(), Meaningful: good, Meaningless: bad})
		t.Rows = append(t.Rows, []string{
			d.Name(), fmt.Sprintf("%d", good), fmt.Sprintf("%d", bad),
		})
	}
	out.Table = t
	return out
}
