package sdadcs

import (
	"context"
	"io"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/report"
	"sdadcs/internal/stream"
	"sdadcs/internal/trace"
)

// Core data types.
type (
	// Dataset is an immutable columnar table with a group attribute.
	Dataset = dataset.Dataset
	// Builder assembles a Dataset column by column.
	Builder = dataset.Builder
	// View is a row subset of a Dataset.
	View = dataset.View
	// CSVOptions controls CSV parsing.
	CSVOptions = dataset.CSVOptions
	// Kind distinguishes categorical from continuous attributes.
	Kind = dataset.Kind

	// Item is one pattern condition; Itemset a conjunction of them.
	Item = pattern.Item
	// Itemset is a conjunction of items, at most one per attribute.
	Itemset = pattern.Itemset
	// Interval is a half-open range (Lo, Hi].
	Interval = pattern.Interval
	// Contrast is a mined pattern with its per-group supports and tests.
	Contrast = pattern.Contrast
	// Supports holds per-group pattern counts and group sizes.
	Supports = pattern.Supports
	// Measure selects the interest measure driving the search.
	Measure = pattern.Measure

	// Config controls a mining run; the zero value reproduces the paper's
	// experimental setup (α=0.05, δ=0.1, depth 5, top-100).
	Config = core.Config
	// Result is a mining outcome: contrasts, meaningfulness, statistics.
	Result = core.Result
	// Pruning toggles the search-space reduction strategies.
	Pruning = core.Pruning
	// Stats reports the work a mining run performed.
	Stats = core.Stats
	// Meaningfulness classifies a contrast as redundant / unproductive /
	// not independently productive.
	Meaningfulness = core.Meaningfulness
	// Validation is the holdout verdict for one contrast.
	Validation = core.Validation
	// OEMode selects the optimistic-estimate variant.
	OEMode = core.OEMode

	// MetricsRecorder is the concurrency-safe instrumentation sink the
	// miner, top-k list and stream monitor report into when
	// Config.Metrics is set. A nil recorder disables instrumentation at
	// near-zero cost.
	MetricsRecorder = metrics.Recorder
	// MetricsSnapshot is a point-in-time, JSON-ready copy of a recorder:
	// per-level node counts and wall times, per-rule prune hits, SDAD-CS
	// split/box/merge counters, top-k threshold dynamics, re-mine
	// latency.
	MetricsSnapshot = metrics.Snapshot

	// Tracer is the decision-level event sink: set Config.Trace to record
	// why each pattern was emitted, pruned, merged or filtered. A nil
	// tracer disables tracing with the same one-pointer-check discipline
	// as MetricsRecorder.
	Tracer = trace.Tracer
	// Trace is a snapshot of a tracer's event buffer (Result.Trace),
	// exportable as JSONL or Chrome trace-event JSON and queryable via
	// Explain.
	Trace = trace.Trace
	// TraceEvent is one traced decision.
	TraceEvent = trace.Event
	// Explanation is the provenance answer for one pattern: its verdict
	// and the exact decision chain recorded about it.
	Explanation = core.Explanation
)

// Attribute kinds.
const (
	Categorical = dataset.Categorical
	Continuous  = dataset.Continuous
)

// Interest measures.
const (
	// SupportDiff scores patterns by their largest between-group support
	// difference (the paper's Eq. 2).
	SupportDiff = pattern.SupportDiff
	// PurityRatio scores by homogeneity (Eq. 12).
	PurityRatio = pattern.PurityRatio
	// SurprisingMeasure is PR × Diff (Eq. 13), the paper's qualitative
	// default.
	SurprisingMeasure = pattern.SurprisingMeasure
	// WRAccMeasure is weighted relative accuracy, used by the subgroup
	// discovery baseline.
	WRAccMeasure = pattern.WRAccMeasure
	// GrowthRateMeasure is the emerging-pattern growth rate of Dong & Li,
	// squashed to GR/(GR+1).
	GrowthRateMeasure = pattern.GrowthRateMeasure
	// ContrastRuleMeasure is the SCR-style confidence spread
	// max conf − min conf.
	ContrastRuleMeasure = pattern.ContrastRuleMeasure
)

// MeasureByName resolves an interest measure by its wire name ("diff",
// "pr", "surprising", "wracc", "growth", "contrast-rules") or its long
// String() name.
func MeasureByName(name string) (Measure, bool) { return pattern.MeasureByName(name) }

// MeasureNames returns the registered measure wire names in enum order.
func MeasureNames() []string { return pattern.MeasureNames() }

// Optimistic-estimate modes.
const (
	// OEModePaper assumes unique real values (Eq. 6; tightest pruning).
	OEModePaper = core.OEModePaper
	// OEModeConservative stays admissible under ties.
	OEModeConservative = core.OEModeConservative
)

// NewBuilder starts building a dataset.
func NewBuilder(name string) *Builder { return dataset.NewBuilder(name) }

// NewItemset builds an itemset from items (sorted canonically).
func NewItemset(items ...Item) Itemset { return pattern.NewItemset(items...) }

// CatItem builds a categorical attribute=value condition.
func CatItem(attr, code int) Item { return pattern.CatItem(attr, code) }

// RangeItem builds a continuous attribute∈(lo,hi] condition.
func RangeItem(attr int, lo, hi float64) Item { return pattern.RangeItem(attr, lo, hi) }

// FromCSV reads a headered CSV into a Dataset; columns whose values all
// parse as numbers become continuous attributes.
func FromCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	return dataset.FromCSV(r, opts)
}

// WriteCSV writes a dataset (attributes plus a trailing group column). It
// fails if an attribute is named groupColumn.
func WriteCSV(w io.Writer, d *Dataset, groupColumn string) error {
	return dataset.WriteCSV(w, d, groupColumn)
}

// Mine runs the SDAD-CS contrast pattern search.
func Mine(d *Dataset, cfg Config) Result { return core.Mine(d, cfg) }

// NewMetricsRecorder returns an enabled instrumentation recorder; assign
// it to Config.Metrics (and/or StreamConfig.Mining.Metrics) to collect
// live counters, then read Result.Metrics or call WriteMetrics.
func NewMetricsRecorder() *MetricsRecorder { return metrics.New() }

// WriteMetrics dumps a recorder's snapshot as indented JSON. Safe to call
// while mining is in progress: the snapshot is built from atomic loads.
func WriteMetrics(w io.Writer, r *MetricsRecorder) error { return metrics.WriteJSON(w, r) }

// NewTracer returns an enabled decision tracer with the given event
// capacity (0 = the 65536-event default); assign it to Config.Trace
// (and/or StreamConfig.Mining.Trace), then read Result.Trace.
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// WriteTraceJSONL writes a trace as JSON Lines: one event per line, fixed
// field order, append-friendly across stream-window segments.
func WriteTraceJSONL(w io.Writer, tr *Trace) error { return trace.WriteJSONL(w, tr) }

// ReadTraceJSONL decodes a JSONL trace stream (possibly a concatenation of
// segments) back into a Trace.
func ReadTraceJSONL(r io.Reader) (*Trace, error) { return trace.ReadJSONL(r) }

// WriteTraceChrome writes a trace in the Chrome trace-event format —
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing, with search
// levels and SDAD-CS invocations as duration spans and per-level workers
// as threads.
func WriteTraceChrome(w io.Writer, tr *Trace) error { return trace.WriteChrome(w, tr) }

// Explain reconstructs the recorded decision chain for one itemset from a
// mining trace: the provenance answer to "why is this pattern (not) in the
// result". Render with Explanation.Format.
func Explain(tr *Trace, set Itemset) Explanation { return core.Explain(tr, set) }

// ParseItemsetKey inverts Itemset.Key — the canonical keys trace events
// carry.
func ParseItemsetKey(key string) (Itemset, error) { return pattern.ParseKey(key) }

// MineContext is Mine with cancellation: the search checks ctx between
// levels and returns the (sorted, filtered) contrasts found so far plus
// ctx.Err() when cancelled.
func MineContext(ctx context.Context, d *Dataset, cfg Config) (Result, error) {
	return core.MineContext(ctx, d, cfg)
}

// Classify evaluates contrasts' meaningfulness (non-redundant, productive,
// independently productive) at significance level alpha.
func Classify(d *Dataset, cs []Contrast, alpha float64) []Meaningfulness {
	return core.Classify(d, cs, alpha)
}

// ValidateHoldout re-evaluates mined contrasts on held-out rows (see
// View.StratifiedSplit): out-of-sample replication is the direct check
// against spurious discoveries.
func ValidateHoldout(holdout View, cs []Contrast, delta, alpha float64) []Validation {
	return core.ValidateHoldout(holdout, cs, delta, alpha)
}

// ReplicationRate is the fraction of contrasts that replicate on a
// holdout.
func ReplicationRate(vs []Validation) float64 { return core.ReplicationRate(vs) }

// AllPruning enables every pruning strategy (the default).
func AllPruning() Pruning { return core.AllPruning() }

// NPPruning is the "no pruning" variant used in the paper's quantitative
// comparisons.
func NPPruning() Pruning { return core.NPPruning() }

// Unified engine API: every algorithm — the SDAD-CS search and the four
// baselines — behind one canonical configuration.
type (
	// MinerConfig is the canonical cross-algorithm configuration: set
	// Algorithm to "sdadcs" (default), "stucco", "mvd", "entropy" or
	// "subgroup" and the shared knobs mean the same thing everywhere.
	MinerConfig = engine.Config
	// MinerResult is the normalized outcome: contrasts, search stats, the
	// binned dataset for globally-discretizing algorithms, and the shared
	// metrics/trace snapshots.
	MinerResult = engine.Result
)

// MineWith dispatches to the configured algorithm. A canceled ctx returns
// the partial result plus ctx.Err(); a malformed config returns joined
// field errors and an empty result.
func MineWith(ctx context.Context, d *Dataset, cfg MinerConfig) (MinerResult, error) {
	return engine.MineContext(ctx, d, cfg)
}

// Algorithms returns the registered algorithm names.
func Algorithms() []string { return engine.Algorithms() }

// Discretized applies cut points to continuous attributes, yielding a
// categorical copy of the dataset (used by the global pre-binning
// baselines and available for custom pipelines).
func Discretized(d *Dataset, cuts map[int][]float64) *Dataset {
	return dataset.Discretized(d, cuts)
}

// Streaming types re-exported from internal/stream: a sliding-window
// contrast monitor for the "timely feedback" deployment of §1/§6.
type (
	// StreamSchema declares a stream's columns.
	StreamSchema = stream.Schema
	// StreamConfig controls the monitor (window size, re-mine cadence,
	// alerting floor).
	StreamConfig = stream.Config
	// StreamEvent is one reported pattern change.
	StreamEvent = stream.Event
	// StreamMonitor tracks contrast patterns over a sliding window.
	StreamMonitor = stream.Monitor
)

// Stream event kinds.
const (
	StreamAppeared    = stream.Appeared
	StreamDisappeared = stream.Disappeared
	StreamDrifted     = stream.Drifted
)

// ErrWindowNotMineable is returned by StreamMonitor.Append when a due
// re-mine found the window unmineable (fewer than two groups). The monitor
// stays usable and retries at the next due re-mine; check with errors.Is
// to treat it as a skipped tick rather than a fatal condition.
var ErrWindowNotMineable = stream.ErrWindowNotMineable

// NewStreamMonitor builds a sliding-window contrast pattern monitor. A
// malformed configuration (negative window, cadence or thresholds, or an
// invalid embedded Mining config) is rejected up front; the error joins
// typed field errors (stream.FieldError / core.FieldError) addressable
// with errors.As.
func NewStreamMonitor(schema StreamSchema, cfg StreamConfig) (*StreamMonitor, error) {
	return stream.NewMonitor(schema, cfg)
}

// ReportFormat names an output renderer for WriteReport.
type ReportFormat = report.Format

// Output formats for WriteReport.
const (
	ReportText     = report.FormatText
	ReportMarkdown = report.FormatMarkdown
	ReportCSV      = report.FormatCSV
	ReportJSON     = report.FormatJSON
)

// WriteReport renders mined contrasts as text, Markdown, CSV or JSON.
func WriteReport(w io.Writer, format ReportFormat, d *Dataset, cs []Contrast) error {
	return report.Write(w, format, d, cs)
}
