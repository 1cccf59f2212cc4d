// Package core implements SDAD-CS (Supervised Dynamic and Adaptive
// Discretization for Contrast Sets), the contribution of Khade, Lin &
// Patel, "Finding Meaningful Contrast Patterns for Quantitative Data"
// (EDBT 2019).
//
// The miner explores attribute combinations levelwise in the order of the
// paper's Figure 1. Combinations of categorical attributes are handled
// STUCCO-style (value enumeration, chi-square contrast test, support
// pruning). As soon as a combination contains a continuous attribute,
// Algorithm 1 runs: the joint continuous space is split top-down at
// per-space medians into 2^|ca| boxes, recursion is steered by optimistic
// estimates of the interest measure (Eq. 5–11) against the dynamic top-k
// threshold, and — back at the first level — contiguous, statistically
// similar boxes are merged bottom-up, smallest hyper-volume first, into the
// general, comprehensible contrasts the paper reports.
//
// Pruning (§4.3) is table-driven: spaces failing the minimum-deviation,
// expected-count, CLT-redundancy or purity rules are recorded in a lookup
// table keyed by canonical itemset, so any later combination whose box has
// a pruned subset is cut without recounting (a categorical candidate as
// the level is generated, before it is built). Meaningfulness filters —
// productive (Eq. 17), independently productive, non-redundant — run as a
// final pass and can be disabled to obtain the SDAD-CS NP variant used in
// the paper's quantitative comparison.
//
// With only categorical attributes, STUCCO's pruning rules, its emission
// gate (Config.ExpectedCountGate) and the filter off, the same search is
// the STUCCO baseline (internal/stucco), which the MVD and entropy
// baselines run over their binned data.
package core
