// Package sdadcs is a contrast set miner for quantitative (mixed
// categorical + continuous) data, reproducing Khade, Lin & Patel, "Finding
// Meaningful Contrast Patterns for Quantitative Data" (EDBT 2019).
//
// Contrast set mining finds patterns — conjunctions of attribute=value and
// attribute∈(lo,hi] conditions — whose support differs significantly
// between groups of a dataset. Unlike classifiers, the output is meant to
// be read: every pattern comes with per-group supports, a chi-square
// significance, and meaningfulness guarantees (non-redundant, productive,
// independently productive).
//
// The package's discretization is supervised, dynamic and adaptive: bins
// for continuous attributes are chosen during the search, jointly over the
// attributes of each candidate pattern, so multivariate interactions
// (XOR-style structure invisible to any univariate binning) are found.
//
// # Quickstart
//
//	d, err := sdadcs.FromCSV(file, sdadcs.CSVOptions{GroupColumn: "label"})
//	if err != nil { ... }
//	res := sdadcs.Mine(d, sdadcs.Config{Measure: sdadcs.SurprisingMeasure})
//	for _, c := range res.Contrasts {
//		fmt.Println(c.Format(d))
//	}
//
// Every algorithm — the SDAD-CS search and the paper's baselines (Bay's
// MVD and Fayyad–Irani entropy discretization, STUCCO categorical mining,
// Cortana-style subgroup discovery) — is also available behind the unified
// engine API, their one public route: MineWith dispatches on
// MinerConfig.Algorithm, and Algorithms lists the registered names.
package sdadcs
