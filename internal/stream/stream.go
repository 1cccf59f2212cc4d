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

	"sdadcs/internal/bitmap"
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

// Config controls the monitor.
type Config struct {
	// WindowSize is the number of most recent rows mined (default 2000).
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
	// DisableIncrementalIndex turns off the delta-maintained bitmap index
	// (see bitmap.DeltaIndex): every re-mine then rebuilds the index from
	// the snapshot, as before. The incremental path is asserted
	// bit-identical to the rebuild, so this is an escape hatch, not a
	// correctness trade.
	DisableIncrementalIndex bool
	// DisableIncrementalRemine forces every due re-mine to run the full
	// levelwise search instead of the incremental re-evaluation
	// (core.MineIncremental) that replays node outcomes the window's
	// change summary proves unchanged. The incremental path is asserted
	// bit-identical to the full re-mine, so like the index switch this is
	// an A/B escape hatch, not a correctness trade. Incremental
	// re-evaluation rides on the delta index; DisableIncrementalIndex
	// implies it.
	DisableIncrementalRemine bool
	// Mining configures the underlying miner (zero value = paper
	// defaults).
	Mining core.Config
}

func (c *Config) defaults() {
	if c.WindowSize == 0 {
		c.WindowSize = 2000
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
			win = 2000
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

	// delta is the incrementally-maintained bitmap index over ring
	// positions: Append XOR-flips the departing and arriving rows' bits,
	// and remine materializes it into the snapshot's code space instead of
	// rebuilding per-value bitmaps from scratch. Nil when disabled.
	delta *bitmap.DeltaIndex

	// remState is the incremental re-mine carry-over: the previous
	// window's cached node outcomes (core.RemineState), replayed by the
	// next re-mine for every node the accumulated change summary proves
	// unchanged. Nil until the first successful incremental re-mine.
	remState *core.RemineState
	// catScratch stages the departing row's categorical values for
	// delta.Touch without a per-append allocation.
	catScratch []string

	// snapBufs are the double-buffered snapshot scratch columns. remine
	// alternates between the two so the previous snapshot dataset — which
	// diff still reads via curData — is never overwritten while in use;
	// only two snapshots are ever live at once. The public Snapshot method
	// still allocates fresh copies (callers may retain them).
	snapBufs [2]snapBuf
	snapCur  int
	encIdx   map[string]int // reused string→code scratch, cleared per column
}

// snapBuf holds one generation of snapshot scratch: per-column backing
// arrays of capacity WindowSize that snapshots slice to the live count.
type snapBuf struct {
	cont [][]float64
	cat  [][]int
	grp  []int
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
	if !cfg.DisableIncrementalIndex {
		m.delta = bitmap.NewDeltaIndex(cfg.WindowSize, len(schema.Categorical))
		m.catScratch = make([]string, len(schema.Categorical))
	}
	for b := range m.snapBufs {
		m.snapBufs[b].cont = make([][]float64, len(schema.Continuous))
		m.snapBufs[b].cat = make([][]int, len(schema.Categorical))
		for i := range m.snapBufs[b].cont {
			m.snapBufs[b].cont[i] = make([]float64, cfg.WindowSize)
		}
		for i := range m.snapBufs[b].cat {
			m.snapBufs[b].cat[i] = make([]int, cfg.WindowSize)
		}
		m.snapBufs[b].grp = make([]int, cfg.WindowSize)
	}
	m.encIdx = make(map[string]int)
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
	had := m.count == m.cfg.WindowSize // pos holds the row being evicted
	if had {
		m.start = (m.start + 1) % m.cfg.WindowSize // evict oldest
	} else {
		m.count++
	}
	if m.delta != nil {
		// Row-dirtiness for the incremental re-mine gate: compare the full
		// departing row (float bits, categorical values, group label)
		// against the arriving one, before the ring cells are overwritten.
		// A bit-identical replacement leaves every cover's content intact
		// and is not a change; anything else marks the position's old and
		// new categorical values touched.
		dirty := !had // a filling window only ever gains new content
		if had {
			if group != m.groups[pos] {
				dirty = true
			}
			for i, v := range cont {
				if math.Float64bits(v) != math.Float64bits(m.cont[i][pos]) {
					dirty = true
					break
				}
			}
			if !dirty {
				for i, v := range cat {
					if v != m.cat[i][pos] {
						dirty = true
						break
					}
				}
			}
		}
		if dirty {
			var old []string
			if had {
				for i := range m.cat {
					m.catScratch[i] = m.cat[i][pos]
				}
				old = m.catScratch
			}
			m.delta.Touch(old, cat)
		}
	}
	for i, v := range cont {
		m.cont[i][pos] = v
	}
	for i, v := range cat {
		if m.delta != nil {
			m.delta.UpdateCat(i, pos, m.cat[i][pos], v, had)
		}
		m.cat[i][pos] = v
	}
	if m.delta != nil {
		m.delta.UpdateGroup(pos, m.groups[pos], group, had)
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

// Snapshot materializes the current window as a dataset. It returns nil
// when the window holds fewer than two groups (mining is undefined).
func (m *Monitor) Snapshot() *dataset.Dataset {
	if m.count == 0 {
		return nil
	}
	b := dataset.NewBuilder(m.schema.Name)
	ordered := func(col []float64) []float64 {
		out := make([]float64, m.count)
		for i := 0; i < m.count; i++ {
			out[i] = col[(m.start+i)%m.cfg.WindowSize]
		}
		return out
	}
	orderedS := func(col []string) []string {
		out := make([]string, m.count)
		for i := 0; i < m.count; i++ {
			out[i] = col[(m.start+i)%m.cfg.WindowSize]
		}
		return out
	}
	for i, name := range m.schema.Continuous {
		b.AddContinuous(name, ordered(m.cont[i]))
	}
	for i, name := range m.schema.Categorical {
		b.AddCategorical(name, orderedS(m.cat[i]))
	}
	b.SetGroups(orderedS(m.groups))
	d, err := b.Build()
	if err != nil {
		return nil // e.g. a single group in the window
	}
	return d
}

// encodeInto writes first-appearance-order domain codes for the window's
// rows of ring column col into codes (scratch, sliced to count) and
// returns the codes plus the freshly-built domain. The scratch map is
// cleared and reused across columns; the domain is allocated fresh every
// snapshot — it is retained by the dataset, and its size tracks distinct
// values, not the window. The coding matches dataset.Builder's encode
// exactly, so buffered snapshots are bit-identical to Snapshot's.
func (m *Monitor) encodeInto(col []string, codes []int) ([]int, []string) {
	clear(m.encIdx)
	var domain []string
	out := codes[:m.count]
	for i := 0; i < m.count; i++ {
		v := col[(m.start+i)%m.cfg.WindowSize]
		c, ok := m.encIdx[v]
		if !ok {
			c = len(domain)
			m.encIdx[v] = c
			domain = append(domain, v)
		}
		out[i] = c
	}
	return out, domain
}

// snapshotBuffered materializes the window into the next scratch buffer
// generation instead of allocating fresh columns — the per-re-mine
// allocation cost stops scaling with window size (only domains and the
// dataset shell are allocated). The previous snapshot, still referenced
// by curData for diffing, lives in the other buffer and stays intact.
func (m *Monitor) snapshotBuffered() *dataset.Dataset {
	if m.count == 0 {
		return nil
	}
	buf := &m.snapBufs[m.snapCur]
	m.snapCur = 1 - m.snapCur
	b := dataset.NewBuilder(m.schema.Name)
	for i, name := range m.schema.Continuous {
		out := buf.cont[i][:m.count]
		for r := 0; r < m.count; r++ {
			out[r] = m.cont[i][(m.start+r)%m.cfg.WindowSize]
		}
		b.AddContinuous(name, out)
	}
	for i, name := range m.schema.Categorical {
		codes, domain := m.encodeInto(m.cat[i], buf.cat[i])
		b.AddCategoricalCoded(name, codes, domain)
	}
	gcodes, gnames := m.encodeInto(m.groups, buf.grp)
	b.SetGroupsCoded(gcodes, gnames)
	d, err := b.Build()
	if err != nil {
		m.snapCur = 1 - m.snapCur // nothing retained the buffer; reuse it
		return nil
	}
	return d
}

// catAttrs returns the snapshot attribute index of each delta-tracked
// categorical column: builders add the continuous columns first, so
// categorical column i lands at attribute len(Continuous)+i.
func (m *Monitor) catAttrs() []int {
	out := make([]int, len(m.schema.Categorical))
	for i := range out {
		out[i] = len(m.schema.Continuous) + i
	}
	return out
}

// changeSummary translates the delta index's column-keyed touch counts
// into the attribute-keyed form core's incremental gate consumes
// (categorical column i is snapshot attribute len(Continuous)+i, matching
// catAttrs).
func (m *Monitor) changeSummary() core.ChangeSummary {
	s := m.delta.Summary()
	ch := core.ChangeSummary{
		RowsTouched: s.RowsTouched,
		Touched:     make(map[int]map[string]int, len(s.Cats)),
	}
	for col, vals := range s.Cats {
		ch.Touched[len(m.schema.Continuous)+col] = vals
	}
	return ch
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
	d := m.snapshotBuffered()
	if d == nil {
		m.skipped++
		return nil, ErrWindowNotMineable
	}
	if m.delta != nil {
		// Seed the snapshot's index slot with the delta-maintained index —
		// bit-identical to the rebuild bitmap.Shared would otherwise pay
		// for — so the mining engine finds it already built.
		d.Index().LoadOrBuild(func() any {
			return m.delta.Materialize(d, m.start, m.count, m.catAttrs())
		})
	}
	rec := m.cfg.Mining.Metrics
	tr := m.cfg.Mining.Trace
	var start time.Time
	var startTS int64
	if rec.Enabled() || tr.Enabled() {
		start = time.Now()
		startTS = tr.Now()
	}
	incremental := m.delta != nil && !m.cfg.DisableIncrementalRemine
	var res core.Result
	if incremental {
		// Incremental re-evaluation: hand the miner the previous window's
		// cached state plus the change summary accumulated since, and keep
		// the state it returns for the next window. The summary is only
		// reset once consumed — skipped (unmineable) re-mines keep
		// accumulating so the next successful one sees every change.
		res, m.remState = core.MineIncremental(d, m.cfg.Mining, m.remState, m.changeSummary())
		m.delta.ResetSummary()
	} else {
		res = core.Mine(d, m.cfg.Mining)
	}
	if rec.Enabled() {
		rec.RemineObserve(time.Since(start))
		rec.RemineMode(incremental)
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
