// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§6) on the synthetic workloads of internal/datagen. Each
// entry point returns structured results plus a renderable Table, and is
// exercised both by cmd/experiments and by the repository's benchmark
// suite. See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured numbers.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/pattern"
)

// Options tunes the experiment harness.
type Options struct {
	// Seed drives every generator (default 20190326, the conference date).
	Seed int64
	// Depth is the attribute-combination depth for the quantitative
	// comparison (default 2; the paper's Table 3 analysis uses 2, and the
	// wide datasets make depth 5 impractical on synthetic rerun).
	Depth int
	// TopK is the per-algorithm pattern budget (default 100, as in §5).
	TopK int
	// Quick shrinks the generated datasets (rows divided by 4) for use in
	// benchmarks; the comparative shape is preserved.
	Quick bool
	// Only restricts the quantitative experiments (Tables 4–6) to the
	// named datasets; nil runs all ten.
	Only []string
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 20190326
	}
	if o.Depth == 0 {
		o.Depth = 2
	}
	if o.TopK == 0 {
		o.TopK = 100
	}
}

// scaleRows applies the Quick reduction.
func (o Options) scaleRows(n int) int {
	if o.Quick {
		n /= 4
		// Keep enough rows per group for MVD's 100-instance initial bins
		// and the expected-count rules to stay meaningful.
		if n < 120 {
			n = 120
		}
	}
	return n
}

// Table is a rendered experiment artifact: one paper table or one figure's
// data series.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// AlgorithmRun is one algorithm's output on one dataset, with cost
// counters for Table 5.
type AlgorithmRun struct {
	Name      string
	Contrasts []pattern.Contrast
	// Data is the dataset the contrasts' items refer to — the original
	// for SDAD-CS and Cortana, the binned copy for MVD and Entropy.
	Data       *dataset.Dataset
	Elapsed    time.Duration
	Partitions int
}

// run mines d through the engine with cfg at the harness's depth and
// top-k: every compared algorithm (SDAD-CS, its NP variant, MVD, Entropy,
// Cortana-Interval) goes through this one runner. Data is the binned
// dataset for the globally-discretizing algorithms, else d.
func run(name string, d *dataset.Dataset, cfg engine.Config, opts Options) AlgorithmRun {
	cfg.MaxDepth, cfg.TopK = opts.Depth, opts.TopK
	start := time.Now()
	res, _ := engine.Mine(d, cfg)
	data := res.Binned
	if data == nil {
		data = d
	}
	return AlgorithmRun{
		Name:       name,
		Contrasts:  res.Contrasts,
		Data:       data,
		Elapsed:    time.Since(start),
		Partitions: res.Stats.PartitionsEvaluated,
	}
}

// fmtF renders a float with three decimals.
func fmtF(x float64) string { return fmt.Sprintf("%.3f", x) }

// fmt2 renders a float with two decimals (the paper's table precision).
func fmt2(x float64) string { return fmt.Sprintf("%.2f", x) }
