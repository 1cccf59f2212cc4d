// Package stream maintains contrast patterns over a sliding window of
// arriving rows — the "timely feedback" deployment the paper's
// introduction motivates (detect an oven running hot *while* the batch is
// being processed) and its conclusion defers to the authors' companion
// streaming work. A Monitor buffers the last WindowSize rows, re-mines
// every MineEvery appends, and reports how the pattern set changed:
// patterns that appeared, disappeared, or drifted in strength.
//
// Because SDAD-CS re-derives bin boundaries on every window, two
// consecutive snapshots rarely produce bit-identical itemsets; patterns
// are matched structurally instead (same attributes, same categorical
// values, overlapping continuous ranges).
package stream

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

// ErrWindowNotMineable is returned by Append when a re-mine was due but the
// window could not be mined — typically because it holds rows of fewer than
// two groups, so contrast mining is undefined. The window keeps filling;
// the next due re-mine will try again. Callers that only care about
// pattern changes can treat it as a skipped tick (errors.Is).
var ErrWindowNotMineable = errors.New("stream: window not mineable (need rows from at least two groups)")

// Schema declares the stream's columns, in arrival order.
type Schema struct {
	Name        string
	Continuous  []string
	Categorical []string
}

// DefaultWindowSize is the window a zero Config.WindowSize selects.
const DefaultWindowSize = 2000

// Config controls the monitor.
type Config struct {
	// WindowSize is the number of most recent rows mined (default
	// DefaultWindowSize).
	WindowSize int
	// MineEvery triggers a re-mine after this many appended rows
	// (default WindowSize/4).
	MineEvery int
	// DriftDelta is the score change that counts as a drift event
	// (default 0.1).
	DriftDelta float64
	// MinEventScore suppresses Appeared/Disappeared events for patterns
	// scoring below it (default 0 = report everything). Weak patterns
	// flicker across the largeness threshold between windows; an alerting
	// floor keeps the event stream to changes worth acting on.
	MinEventScore float64
	// Mining configures the underlying miner (zero value = paper
	// defaults).
	Mining core.Config
}

func (c *Config) defaults() {
	if c.WindowSize == 0 {
		c.WindowSize = DefaultWindowSize
	}
	if c.MineEvery == 0 {
		c.MineEvery = c.WindowSize / 4
	}
	// WindowSize 1–3 makes the WindowSize/4 default collapse to zero,
	// which would re-mine on EVERY append through the `sinceMine <
	// MineEvery` guard never holding — the regression the tiny-window
	// tests pin. A tiny window legitimately re-mines every row, but by
	// this explicit clamp, not by integer-division accident.
	if c.MineEvery < 1 {
		c.MineEvery = 1
	}
	if c.DriftDelta == 0 {
		c.DriftDelta = 0.1
	}
}

// FieldError reports one invalid Config field, mirroring core.FieldError:
// Validate wraps every violation so callers can errors.As for the field
// name.
type FieldError struct {
	// Field is the Config field name (e.g. "WindowSize").
	Field string
	// Value is the rejected value.
	Value any
	// Reason states what a valid value looks like.
	Reason string
}

// Error renders "stream config: Field = value: reason".
func (e *FieldError) Error() string {
	return fmt.Sprintf("stream config: %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the monitor configuration with the same philosophy as
// core.Config.Validate: zero values are never errors (they map to
// documented defaults); only actively malformed settings are rejected.
// All violations are collected and returned joined; each is a
// *FieldError, and an invalid embedded Mining config contributes the core
// package's own *core.FieldError values to the join.
func (c Config) Validate() error {
	var errs []error
	bad := func(field string, value any, reason string) {
		errs = append(errs, &FieldError{Field: field, Value: value, Reason: reason})
	}
	if c.WindowSize < 0 {
		bad("WindowSize", c.WindowSize, "window size must be positive (0 selects the default)")
	}
	if c.MineEvery < 0 {
		bad("MineEvery", c.MineEvery, "re-mine cadence must be positive (0 selects the default)")
	}
	if c.MineEvery > 0 && c.WindowSize >= 0 {
		// Resolve the window the cadence will actually run against (0
		// selects the documented default). A cadence longer than the window
		// means whole windows of rows slide past unmined — and before the
		// cadence-guard fix in Append it silently never mined at all — so
		// it is rejected as actively malformed rather than defaulted.
		win := c.WindowSize
		if win == 0 {
			win = DefaultWindowSize
		}
		if c.MineEvery > win {
			bad("MineEvery", c.MineEvery,
				fmt.Sprintf("re-mine cadence cannot exceed the window size (%d): rows would slide past unmined", win))
		}
	}
	if c.DriftDelta < 0 || math.IsNaN(c.DriftDelta) {
		bad("DriftDelta", c.DriftDelta, "drift threshold must be a non-negative number")
	}
	if c.MinEventScore < 0 || math.IsNaN(c.MinEventScore) {
		bad("MinEventScore", c.MinEventScore, "event floor must be a non-negative number")
	}
	if err := c.Mining.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// EventKind classifies a pattern change.
type EventKind int

// Event kinds.
const (
	// Appeared: a pattern with no structural match in the previous
	// snapshot.
	Appeared EventKind = iota
	// Disappeared: a previous pattern with no match in the new snapshot.
	Disappeared
	// Drifted: a matched pattern whose score moved by at least
	// DriftDelta.
	Drifted
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Appeared:
		return "appeared"
	case Disappeared:
		return "disappeared"
	case Drifted:
		return "drifted"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one reported pattern change. The Contrast's itemset refers to
// the snapshot dataset current when the event fired.
type Event struct {
	Kind      EventKind
	Contrast  pattern.Contrast
	PrevScore float64 // for Drifted and Disappeared
	Format    string  // pre-rendered description (snapshot datasets are transient)
}

// Monitor is a sliding-window contrast pattern tracker. Not safe for
// concurrent use.
type Monitor struct {
	schema Schema
	cfg    Config

	// ring buffers, newest at (start+count-1) % WindowSize
	cont   [][]float64
	cat    [][]string
	groups []string
	start  int
	count  int

	sinceMine int
	current   []pattern.Contrast
	curData   *dataset.Dataset
	mines     int
	skipped   int
}

// NewMonitor builds a monitor for the schema. A malformed configuration
// (see Config.Validate) is rejected up front with the joined *FieldError
// values rather than surfacing as misbehaviour mid-stream.
func NewMonitor(schema Schema, cfg Config) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	m := &Monitor{
		schema: schema,
		cfg:    cfg,
		cont:   make([][]float64, len(schema.Continuous)),
		cat:    make([][]string, len(schema.Categorical)),
		groups: make([]string, cfg.WindowSize),
	}
	for i := range m.cont {
		m.cont[i] = make([]float64, cfg.WindowSize)
	}
	for i := range m.cat {
		m.cat[i] = make([]string, cfg.WindowSize)
	}
	return m, nil
}

// Len returns the number of rows currently in the window.
func (m *Monitor) Len() int { return m.count }

// Mines returns how many re-mines have run.
func (m *Monitor) Mines() int { return m.mines }

// SkippedMines returns how many due re-mines were skipped because the
// window was not mineable (see ErrWindowNotMineable) — the stat that lets
// operators distinguish "no pattern changes" from "could not mine".
func (m *Monitor) SkippedMines() int { return m.skipped }

// Append adds one row. cont and cat must match the schema's column
// counts. When a re-mine triggers, the pattern-change events are
// returned; otherwise the slice is nil. A due re-mine over a window that
// cannot be mined (single group) returns ErrWindowNotMineable; the monitor
// stays usable and retries at the next due re-mine.
func (m *Monitor) Append(cont []float64, cat []string, group string) ([]Event, error) {
	if len(cont) != len(m.schema.Continuous) || len(cat) != len(m.schema.Categorical) {
		return nil, fmt.Errorf("stream: row has %d/%d values, schema wants %d/%d",
			len(cont), len(cat), len(m.schema.Continuous), len(m.schema.Categorical))
	}
	pos := (m.start + m.count) % m.cfg.WindowSize
	if m.count == m.cfg.WindowSize { // pos holds the row being evicted
		m.start = (m.start + 1) % m.cfg.WindowSize // evict oldest
	} else {
		m.count++
	}
	for i, v := range cont {
		m.cont[i][pos] = v
	}
	for i, v := range cat {
		m.cat[i][pos] = v
	}
	m.groups[pos] = group

	m.sinceMine++
	// Cadence guard. A second `m.count < m.cfg.MineEvery` clause used to
	// ride along here; during first fill it was dead (count never trails
	// sinceMine), and once the window was full it could only fire for
	// MineEvery > WindowSize — silently suppressing every re-mine forever.
	// That misconfiguration is now rejected by Validate instead.
	if m.sinceMine < m.cfg.MineEvery {
		return nil, nil
	}
	m.sinceMine = 0
	return m.remine()
}

// Snapshot copies the window's rows, in arrival order, into a fresh
// dataset; it is the only way a window becomes one, and the re-mine mines
// it. Categorical and group values are coded in first-appearance order,
// the coding dataset.Builder gives string columns, so the dataset equals
// one built from the same rows by AddCategorical and SetGroups. It
// returns nil when the window is empty or cannot be built — fewer than
// two groups (mining is undefined) or an infinite reading.
func (m *Monitor) Snapshot() *dataset.Dataset {
	if m.count == 0 {
		return nil
	}
	b := dataset.NewBuilder(m.schema.Name)
	for i, name := range m.schema.Continuous {
		col := make([]float64, m.count)
		for r := range col {
			col[r] = m.cont[i][(m.start+r)%m.cfg.WindowSize]
		}
		b.AddContinuous(name, col)
	}
	seen := make(map[string]int)
	encode := func(ring []string) ([]int, []string) {
		clear(seen)
		codes := make([]int, m.count)
		var domain []string
		for r := range codes {
			v := ring[(m.start+r)%m.cfg.WindowSize]
			c, ok := seen[v]
			if !ok {
				c = len(domain)
				seen[v] = c
				domain = append(domain, v)
			}
			codes[r] = c
		}
		return codes, domain
	}
	for i, name := range m.schema.Categorical {
		codes, domain := encode(m.cat[i])
		b.AddCategoricalCoded(name, codes, domain)
	}
	b.SetGroupsCoded(encode(m.groups))
	d, err := b.Build()
	if err != nil {
		return nil
	}
	return d
}

// Current returns the patterns of the latest snapshot.
func (m *Monitor) Current() []pattern.Contrast { return m.current }

// CurrentData returns the dataset the current patterns refer to.
func (m *Monitor) CurrentData() *dataset.Dataset { return m.curData }

// remine mines the window and diffs against the previous pattern set. When
// the mining config carries a metrics recorder, the window's re-mine wall
// time is observed — the latency of "timely feedback" itself. A window
// that cannot be mined surfaces ErrWindowNotMineable (and bumps the
// skipped-mine stat) instead of silently reporting "no changes".
func (m *Monitor) remine() ([]Event, error) {
	d := m.Snapshot()
	if d == nil {
		m.skipped++
		return nil, ErrWindowNotMineable
	}
	rec := m.cfg.Mining.Metrics
	tr := m.cfg.Mining.Trace
	var start time.Time
	var startTS int64
	if rec.Enabled() || tr.Enabled() {
		start = time.Now()
		startTS = tr.Now()
	}
	res := core.Mine(d, m.cfg.Mining)
	if rec.Enabled() {
		rec.RemineObserve(time.Since(start))
	}
	if tr.Enabled() {
		tr.Remine(startTS, d.Rows(), len(res.Contrasts), time.Since(start))
	}
	m.mines++
	events := m.diff(d, res.Contrasts)
	m.current = res.Contrasts
	m.curData = d
	return events, nil
}

// diff matches new patterns against the previous set structurally. When
// several previous patterns are structural candidates — two sibling
// patterns over the same attribute set, e.g. the low and high halves of a
// split — the one with the maximal range overlap is paired, not the first
// in list order: first-match pairing could cross the siblings and emit
// spurious Drifted + Appeared/Disappeared events.
func (m *Monitor) diff(d *dataset.Dataset, next []pattern.Contrast) []Event {
	var events []Event
	matchedPrev := make([]bool, len(m.current))
	for _, c := range next {
		best := -1
		bestOverlap := math.Inf(-1)
		for i, p := range m.current {
			if matchedPrev[i] || !structurallySame(c.Set, d, p.Set, m.curData) {
				continue
			}
			if ov := rangeOverlap(c.Set, p.Set); ov > bestOverlap {
				best, bestOverlap = i, ov
			}
		}
		if best == -1 {
			if c.Score >= m.cfg.MinEventScore {
				events = append(events, Event{
					Kind:     Appeared,
					Contrast: c,
					Format:   c.Format(d),
				})
			}
			continue
		}
		matchedPrev[best] = true
		prev := m.current[best]
		delta := c.Score - prev.Score
		if delta >= m.cfg.DriftDelta || delta <= -m.cfg.DriftDelta {
			events = append(events, Event{
				Kind:      Drifted,
				Contrast:  c,
				PrevScore: prev.Score,
				Format:    c.Format(d),
			})
		}
	}
	for i, p := range m.current {
		if !matchedPrev[i] && p.Score >= m.cfg.MinEventScore {
			events = append(events, Event{
				Kind:      Disappeared,
				Contrast:  p,
				PrevScore: p.Score,
				Format:    p.Set.Format(m.curData), // refers to the previous snapshot
			})
		}
	}
	return events
}

// rangeOverlap scores how well two structurally-same itemsets' continuous
// ranges line up: the sum, over continuous attributes, of the Jaccard
// overlap of the two intervals (intersection width / union width). Higher
// is better; itemsets with no continuous attributes score 0 (any
// structural match is then exact — categorical values already agreed).
//
// Unbounded ends make the Jaccard ratio degenerate, so they are scored by
// cases — symmetrically, because window-to-window clamping can unbound
// either itemset's end and pairing must not flip with clamp direction:
// an infinite intersection (both intervals unbounded the same way) is a
// full match; a finite intersection inside an unbounded union is scored
// against the narrower interval's width when that is finite (a bounded
// interval nested in a half-line keeps the credit it would earn against
// its own extent), and only drops to zero when both intervals are
// unbounded (opposite ways — their overlap says nothing about alignment).
func rangeOverlap(a, b pattern.Itemset) float64 {
	score := 0.0
	for _, ia := range a.Items() {
		if ia.Kind != dataset.Continuous {
			continue
		}
		ib, ok := b.ItemOn(ia.Attr)
		if !ok || ib.Kind != dataset.Continuous {
			continue
		}
		inter := math.Min(ia.Range.Hi, ib.Range.Hi) - math.Max(ia.Range.Lo, ib.Range.Lo)
		if inter <= 0 || math.IsNaN(inter) {
			continue
		}
		union := math.Max(ia.Range.Hi, ib.Range.Hi) - math.Min(ia.Range.Lo, ib.Range.Lo)
		switch {
		case math.IsInf(inter, 1):
			score++ // both unbounded the same way: treat as full overlap
		case math.IsInf(union, 1):
			// Finite intersection, unbounded union: fall back to the
			// narrower interval's own width as the denominator, so a finite
			// interval nested inside a half-line still earns its containment
			// fraction whichever side of the pair it sits on.
			width := math.Min(ia.Range.Hi-ia.Range.Lo, ib.Range.Hi-ib.Range.Lo)
			if !math.IsInf(width, 1) && width > 0 {
				score += inter / width
			}
		default:
			score += inter / union
		}
	}
	return score
}

// structurallySame matches itemsets across snapshots: same attribute set,
// identical categorical *values* (domain codes are assigned per snapshot
// in first-appearance order, so codes are not comparable across windows),
// and overlapping ranges on every continuous attribute (bin boundaries
// drift between windows).
func structurallySame(a pattern.Itemset, da *dataset.Dataset, b pattern.Itemset, db *dataset.Dataset) bool {
	if a.Len() != b.Len() || da == nil || db == nil {
		return false
	}
	for _, ia := range a.Items() {
		ib, ok := b.ItemOn(ia.Attr)
		if !ok || ia.Kind != ib.Kind {
			return false
		}
		if ia.Kind == dataset.Categorical {
			if da.Domain(ia.Attr)[ia.Code] != db.Domain(ib.Attr)[ib.Code] {
				return false
			}
			continue
		}
		if ia.Range.Hi <= ib.Range.Lo || ib.Range.Hi <= ia.Range.Lo {
			return false // disjoint ranges
		}
	}
	return true
}
