// Package oracle is the differential correctness oracle for the production
// miner: a deliberately slow, obviously-correct reference implementation of
// the paper's search, plus a seeded generator of adversarial mixed datasets
// and a differential driver that compares the two miners pattern by
// pattern.
//
// The reference miner (Mine) is a direct transliteration of the paper's
// math with every optimization removed:
//
//   - exhaustive levelwise enumeration of attribute combinations — no
//     top-k bound, no optimistic-estimate recursion pruning, no
//     redundancy/pure-space/expected-count/lookup-table rules;
//   - naive per-row slice counting: every box and every categorical
//     itemset is counted by scanning rows and testing membership
//     directly, never by incremental assignment or bitmap intersection;
//   - Eq. 1 (support), Eq. 2 (Diff), Eq. 12 (PR) and Eq. 13 (SM) computed
//     from first principles in suppOf/scoreOf;
//   - the chi-square statistic recomputed from the Σ(o−e)²/e definition
//     (only the χ² survival function is shared with production — it is
//     pure special-function math, not miner logic);
//   - the STUCCO Bonferroni schedule α_l = min(α/|C_l|, α_{l−1}) tracked
//     independently;
//   - SDAD-CS (Algorithm 1) re-implemented with per-box row scans, the
//     lower-middle median split rule, the D/Dtemp tentative-contrast
//     logic, the supersede-by-children rule, and a restart-based
//     bottom-up merge that re-sorts and re-tests every pair after each
//     union (the production merge memoizes failures and splices — the
//     oracle validates that claim of equivalence).
//
// Two semantic choices are shared with production deliberately, because
// they are spec decisions rather than optimizations: combinations with an
// empty categorical cover are not candidates (they are dropped before the
// level's Bonferroni count), and a continuous combination is extended to
// the next level only if its discretization split at least once.
//
// The differential driver (diff.go) asserts three relations on every
// generated dataset: CheckExact — with pruning off and no result bound the
// production miner's output equals the oracle's bit for bit; CheckTopK —
// with a top-k bound the production output is a correctly-ranked,
// threshold-consistent selection from the oracle's pattern universe (a
// documented tolerance applies where the dynamic-threshold recursion
// pruning legitimately stops refining: see CheckTopK); CheckSoundness —
// under the full default configuration every emitted pattern recounts,
// rescores and passes its gates. transform.go adds the metamorphic layer:
// row permutation, group relabeling, duplicate-row scaling and column
// reordering, plus bit-equality across worker counts and instrumentation
// on/off.
//
// Run the tier with:
//
//	go test ./internal/oracle -run TestOracle
//
// ORACLE_SEEDS overrides the number of random seeds (default 50; the
// nightly CI sweep sets 500).
package oracle
