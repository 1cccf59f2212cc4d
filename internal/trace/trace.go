// Package trace is the decision-level observability layer of the mining
// pipeline: where internal/metrics answers "how much work did the miner
// do", trace answers "why was this particular pattern emitted, pruned,
// merged or filtered" — the provenance question the paper's §4.3 pruning
// rules and §5 meaningfulness filters raise for every pattern a
// practitioner expected but does not see.
//
// The central type is Tracer, an event emitter with the same discipline as
// metrics.Recorder: a nil *Tracer is a valid, disabled tracer whose
// methods return after one pointer check and allocate nothing (see
// TestDisabledTracerAllocs). Hot call sites additionally guard payload
// construction with Enabled(), so the disabled path never builds an
// argument string or copies a support slice.
//
// An event carries the itemset it is about, not its canonical key: the
// key is formatted only where a trace is read (Event.Key, the exports and
// the explain path), so a traced mine formats no key for the events
// nobody reads.
//
// Events land in a fixed-capacity, lock-free ring: emitters claim a slot
// with one atomic fetch-add and publish with one atomic store, so tracing
// never blocks the miner and is safe from any number of worker goroutines.
// The ring is allocated a page at a time as tickets reach it, so a run
// pays memory for the events it records, not for the capacity. When the
// ring is full, new events are dropped and counted — the discard policy
// standard trace recorders use under overload — which also preserves the
// *early* decisions of a run, exactly the ones pattern provenance needs.
//
// Snapshots export two ways: JSONL (one event per line, fixed field
// order — see WriteJSONL) and the Chrome trace-event format (WriteChrome;
// loads in Perfetto or chrome://tracing, with level/SDAD-CS spans and
// worker IDs mapped to tids). NewIndex builds the per-pattern provenance
// index that powers the `cmd/contrast -explain` query path.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"sdadcs/internal/pattern"
)

// Kind enumerates traced decision points. The names (see String) are the
// stable identifiers used by the JSONL export and the explain renderer.
type Kind uint8

// Traced decision kinds. The V1/V2/V3 payload slots are kind-specific;
// the table below is the authoritative schema (mirrored in README.md).
const (
	// KindLevel spans one levelwise search level. V1 = frontier size,
	// V2 = survivors, V3 = wall nanoseconds. TS is the level's start.
	KindLevel Kind = iota
	// KindNode records one frontier node evaluation: Set = itemset,
	// Level, Worker, Counts = per-group supports, V1 = covered rows.
	KindNode
	// KindPrune records one negative decision about a pattern: Set =
	// itemset, Arg = rule name (the metrics.PruneRule strings, optionally
	// suffixed ":<subset key>" for provenance-carrying rules, plus the
	// terminal decision labels "not_large" / "not_significant" /
	// "expected_count_gate" (significant, but an expected cell of the χ²
	// table is below 5; the STUCCO baselines only) /
	// "superseded_by_children"), V1 = observed statistic, V2 = the bound
	// it was compared against.
	KindPrune
	// KindSDAD spans one SDAD-CS (Algorithm 1) invocation: Set = the
	// categorical context, V1 = cover rows, V3 = wall nanoseconds.
	// TS is the call's start.
	KindSDAD
	// KindSplit records one median split decision: Set = parent box,
	// Arg = attribute name, Level = recursion depth, V1 = median,
	// V2/V3 = the box's (Lo, Hi] bounds on that attribute.
	KindSplit
	// KindSpace records one SDAD-CS partition box evaluation:
	// Set = box itemset, Level = recursion depth, Counts = per-group
	// supports, V1 = rows in the box.
	KindSpace
	// KindMerge records one bottom-up merge decision between contiguous
	// spaces: Set = the union box, Arg = verdict ("merged",
	// "reject_similarity", "reject_largeness", "reject_significance"),
	// V1 = the similarity chi-square p-value, V2 = the merged support
	// difference (when computed).
	KindMerge
	// KindEmit records a contrast entering the candidate stream:
	// Set = itemset, V1 = score, V2 = chi-square statistic, V3 = p-value,
	// Counts = per-group supports.
	KindEmit
	// KindTopK records top-k list dynamics: Set = the affected itemset,
	// Arg = "admitted" | "evicted" | "rejected" | "replaced",
	// V1 = threshold before, V2 = threshold after (or the score that
	// failed admission, for "rejected").
	KindTopK
	// KindFilter records the final meaningfulness verdict: Set = itemset,
	// Arg = "kept" | "redundant" | "unproductive" | "dependent:<superset
	// key>", V1 = score.
	KindFilter
	// KindRemine spans one stream-monitor window re-mine: V1 = window
	// rows, V2 = patterns in the new snapshot, V3 = wall nanoseconds.
	// TS is the re-mine's start.
	KindRemine

	numKinds
)

// String names the kind (stable identifiers used by the JSONL schema).
func (k Kind) String() string {
	switch k {
	case KindLevel:
		return "level"
	case KindNode:
		return "node"
	case KindPrune:
		return "prune"
	case KindSDAD:
		return "sdad"
	case KindSplit:
		return "split"
	case KindSpace:
		return "space"
	case KindMerge:
		return "merge"
	case KindEmit:
		return "emit"
	case KindTopK:
		return "topk"
	case KindFilter:
		return "filter"
	case KindRemine:
		return "remine"
	default:
		return "unknown"
	}
}

// kindFromString inverts String; ok is false for unknown names.
func kindFromString(s string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// MaxGroups bounds the per-group support counts carried inline by an
// event. Contrast mining compares a handful of groups (the paper's
// datasets have 2–6); deeper group structures truncate rather than
// allocate per event.
const MaxGroups = 8

// Event is one traced decision. Events are fixed-size values so the ring
// never allocates per emission; kind-specific payload semantics are
// documented on the Kind constants. Events hold an itemset, so they do
// not compare with ==.
type Event struct {
	// Seq is the emission ticket: a dense, per-tracer sequence number
	// that orders events totally (assignment order, not publish order).
	Seq uint64
	// TS is nanoseconds since the tracer's epoch. Span kinds (level,
	// sdad, remine) stamp their *start*; instant kinds stamp emission.
	TS int64
	// Level is the levelwise search level or SDAD-CS recursion depth.
	Level int32
	// Worker is the per-level worker goroutine index (0 when mining
	// single-threaded); it becomes the tid in the Chrome export.
	Worker int32
	// Set is the itemset the decision is about (empty for pattern-free
	// events); Key formats its canonical key.
	Set pattern.Itemset
	// Arg is the kind-specific label: prune rule, merge/top-k/filter
	// verdict, split attribute name.
	Arg string
	// V1, V2, V3 are kind-specific numeric payloads.
	V1, V2, V3 float64
	// Counts holds the first NG per-group support counts.
	Counts [MaxGroups]int32
	// Kind is the decision point.
	Kind Kind
	// NG is the number of valid entries in Counts.
	NG uint8
}

// Key returns the canonical key of the event's itemset ("" for
// pattern-free events); pattern.ParseKey inverts it.
func (e *Event) Key() string { return e.Set.Key() }

// GroupCounts returns the event's per-group supports as a slice (nil when
// the event carries none).
func (e *Event) GroupCounts() []int {
	if e.NG == 0 {
		return nil
	}
	out := make([]int, e.NG)
	for i := 0; i < int(e.NG); i++ {
		out[i] = int(e.Counts[i])
	}
	return out
}

// DefaultCapacity is the event capacity New uses when given 0: 1<<16
// events hold the complete decision record of the paper's experimental
// runs with room to spare. Full, the ring takes 8 MiB of events (128 B
// each) plus 256 KiB of publish flags; it is allocated a page at a time,
// so a run that records fewer events takes less.
const DefaultCapacity = 1 << 16

// pageShift sets the ring's page size: 1<<10 events (128 KiB) per page,
// or the capacity rounded up to a power of two when that is smaller.
const pageShift = 10

// page is one slice of the ring. ready[i] flips 0→1 when events[i] is
// fully written; Snapshot reads only published slots, so a snapshot taken
// while emitters are still running never observes a torn event.
type page struct {
	events []Event
	ready  []atomic.Uint32
}

// Tracer is the concurrency-safe decision-event sink. A nil *Tracer is
// the disabled tracer: every method returns after one pointer check.
// Construct with New.
//
// A tracer keeps the itemsets it is handed until its trace is dropped and
// formats their keys only when the trace is read, so an itemset passed to
// a Tracer method must never be mutated afterwards.
type Tracer struct {
	epoch    time.Time
	capacity uint64
	// pages[p] holds tickets [p<<shift, (p+1)<<shift); nil until the
	// first of them is claimed. Pages are installed under mu, so racing
	// emitters share one page instead of each allocating their own.
	pages []atomic.Pointer[page]
	shift uint
	mu    sync.Mutex
	// next is the ticket counter; tickets >= capacity are drops.
	next atomic.Uint64
	// emitted/dropped are cumulative across Drain calls.
	emitted atomic.Uint64
	dropped atomic.Uint64
	// highWater is the maximum ring fill observed across Drain cycles.
	highWater atomic.Uint64
}

// New returns an enabled tracer with the given event capacity
// (0 = DefaultCapacity). No event memory is allocated until events are
// recorded.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	shift := uint(0)
	for shift < pageShift && 1<<shift < capacity {
		shift++
	}
	pageLen := 1 << shift
	return &Tracer{
		epoch:    time.Now(),
		capacity: uint64(capacity),
		pages:    make([]atomic.Pointer[page], (capacity+pageLen-1)/pageLen),
		shift:    shift,
	}
}

// page returns the page holding ticket, installing it on first use.
func (t *Tracer) page(ticket uint64) *page {
	slot := &t.pages[ticket>>t.shift]
	if pg := slot.Load(); pg != nil {
		return pg
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pg := slot.Load()
	if pg == nil {
		n := 1 << t.shift
		pg = &page{events: make([]Event, n), ready: make([]atomic.Uint32, n)}
		slot.Store(pg)
	}
	return pg
}

// Enabled reports whether the tracer records anything; hot call sites use
// it to skip payload construction (argument strings, count copies) on the
// disabled path.
func (t *Tracer) Enabled() bool { return t != nil }

// Capacity returns the ring's event capacity (0 for a nil tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return int(t.capacity)
}

// Now returns the nanoseconds-since-epoch timestamp span emitters capture
// at their start. A nil tracer returns 0.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// emitAt claims a ticket and publishes the event with the given
// timestamp. Full ring → drop + count, never block.
func (t *Tracer) emitAt(ts int64, ev Event) {
	ticket := t.next.Add(1) - 1
	t.emitted.Add(1)
	if ticket >= t.capacity {
		t.dropped.Add(1)
		return
	}
	ev.Seq = ticket
	ev.TS = ts
	pg := t.page(ticket)
	i := ticket & (1<<t.shift - 1)
	pg.events[i] = ev
	pg.ready[i].Store(1) // publish (atomic store orders the slot write)
}

func (t *Tracer) emit(ev Event) { t.emitAt(int64(time.Since(t.epoch)), ev) }

// putCounts copies up to MaxGroups group counts into the event.
func putCounts(ev *Event, counts []int) {
	n := len(counts)
	if n > MaxGroups {
		n = MaxGroups
	}
	for i := 0; i < n; i++ {
		ev.Counts[i] = int32(counts[i])
	}
	ev.NG = uint8(n)
}

// Level records one completed levelwise search level as a span starting
// at startTS (a Tracer.Now value captured before the level ran).
func (t *Tracer) Level(startTS int64, level, frontier, survivors int, wall time.Duration) {
	if t == nil {
		return
	}
	t.emitAt(startTS, Event{
		Kind:  KindLevel,
		Level: int32(level),
		V1:    float64(frontier),
		V2:    float64(survivors),
		V3:    float64(wall),
	})
}

// Node records one frontier-node evaluation.
func (t *Tracer) Node(level, worker int, set pattern.Itemset, rows int, counts []int) {
	if t == nil {
		return
	}
	ev := Event{Kind: KindNode, Level: int32(level), Worker: int32(worker), Set: set, V1: float64(rows)}
	putCounts(&ev, counts)
	t.emit(ev)
}

// Prune records one pruning-rule firing with the observed statistic and
// the bound it lost against.
func (t *Tracer) Prune(level, worker int, set pattern.Itemset, rule string, observed, bound float64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindPrune, Level: int32(level), Worker: int32(worker),
		Set: set, Arg: rule, V1: observed, V2: bound})
}

// SDAD records one SDAD-CS invocation as a span starting at startTS.
func (t *Tracer) SDAD(startTS int64, worker int, set pattern.Itemset, rows int, wall time.Duration) {
	if t == nil {
		return
	}
	t.emitAt(startTS, Event{Kind: KindSDAD, Worker: int32(worker), Set: set,
		V1: float64(rows), V3: float64(wall)})
}

// Split records one median-split decision within a box.
func (t *Tracer) Split(level, worker int, set pattern.Itemset, attr string, median, lo, hi float64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindSplit, Level: int32(level), Worker: int32(worker),
		Set: set, Arg: attr, V1: median, V2: lo, V3: hi})
}

// Space records one SDAD-CS partition-box evaluation.
func (t *Tracer) Space(level, worker int, set pattern.Itemset, rows int, counts []int) {
	if t == nil {
		return
	}
	ev := Event{Kind: KindSpace, Level: int32(level), Worker: int32(worker), Set: set, V1: float64(rows)}
	putCounts(&ev, counts)
	t.emit(ev)
}

// Merge records one bottom-up merge decision (see KindMerge for the
// verdict vocabulary).
func (t *Tracer) Merge(worker int, set pattern.Itemset, verdict string, p, diff float64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindMerge, Worker: int32(worker), Set: set, Arg: verdict, V1: p, V2: diff})
}

// Emit records a contrast entering the candidate stream.
func (t *Tracer) Emit(level, worker int, set pattern.Itemset, score, chisq, p float64, counts []int) {
	if t == nil {
		return
	}
	ev := Event{Kind: KindEmit, Level: int32(level), Worker: int32(worker),
		Set: set, V1: score, V2: chisq, V3: p}
	putCounts(&ev, counts)
	t.emit(ev)
}

// TopK records a top-k list transition for the given itemset.
func (t *Tracer) TopK(set pattern.Itemset, verdict string, before, after float64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindTopK, Set: set, Arg: verdict, V1: before, V2: after})
}

// Filter records the final meaningfulness verdict for a contrast.
func (t *Tracer) Filter(set pattern.Itemset, verdict string, score float64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindFilter, Set: set, Arg: verdict, V1: score})
}

// Remine records one stream-monitor window re-mine as a span starting at
// startTS.
func (t *Tracer) Remine(startTS int64, rows, patterns int, wall time.Duration) {
	if t == nil {
		return
	}
	t.emitAt(startTS, Event{Kind: KindRemine,
		V1: float64(rows), V2: float64(patterns), V3: float64(wall)})
}

// Stats reports the tracer's cumulative volume counters: events offered,
// events dropped on overflow, and the ring high-water mark. Safe to call
// concurrently with emitters; a nil tracer reports zeros.
func (t *Tracer) Stats() (emitted, dropped uint64, highWater int) {
	if t == nil {
		return 0, 0, 0
	}
	return t.emitted.Load(), t.dropped.Load(), int(t.fillHighWater())
}

// fill returns the number of claimed slots, at most the capacity.
func (t *Tracer) fill() uint64 {
	return min(t.next.Load(), t.capacity)
}

// fillHighWater folds the current fill into the cross-Drain maximum.
func (t *Tracer) fillHighWater() uint64 {
	fill := t.fill()
	for {
		cur := t.highWater.Load()
		if fill <= cur {
			return cur
		}
		if t.highWater.CompareAndSwap(cur, fill) {
			return fill
		}
	}
}

// Trace is a snapshot of a tracer's ring plus its volume counters — the
// value attached to core.Result.Trace and consumed by the exporters and
// the provenance index.
type Trace struct {
	// Events holds the published events in sequence order.
	Events []Event
	// Emitted counts events offered over the tracer's lifetime
	// (including dropped ones); Dropped counts ring-full discards.
	Emitted, Dropped uint64
	// HighWater is the maximum ring fill observed; Capacity the ring's
	// event capacity.
	HighWater, Capacity int
}

// Snapshot copies the published events, once, into a slice of exactly
// their number. It is safe while emitters are running (unpublished slots
// are skipped); for a complete record call it after mining returns. A nil
// tracer yields an empty trace.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return &Trace{}
	}
	fill := t.fill()
	tr := &Trace{
		Emitted:   t.emitted.Load(),
		Dropped:   t.dropped.Load(),
		HighWater: int(t.fillHighWater()),
		Capacity:  int(t.capacity),
	}
	n := 0
	t.published(fill, func(*Event) { n++ })
	// Slots only turn published between the passes, so the second one
	// finds at least n events; the first n of them are a consistent set.
	tr.Events = make([]Event, 0, n)
	t.published(fill, func(e *Event) {
		if len(tr.Events) < n {
			tr.Events = append(tr.Events, *e)
		}
	})
	return tr
}

// published calls f with every published event among the first fill
// tickets, in ticket order.
func (t *Tracer) published(fill uint64, f func(*Event)) {
	pageLen := uint64(1) << t.shift
	for start := uint64(0); start < fill; start += pageLen {
		pg := t.pages[start>>t.shift].Load()
		if pg == nil {
			continue // claimed, but its page is not installed yet
		}
		for i := uint64(0); i < pageLen && start+i < fill; i++ {
			if pg.ready[i].Load() == 1 {
				f(&pg.events[i])
			}
		}
	}
}

// Drain snapshots the ring and resets it for reuse, keeping the
// cumulative Emitted/Dropped/HighWater counters and the installed pages —
// the per-window segment primitive cmd/monitor uses between re-mines.
// Unlike Snapshot, Drain must not race with emitters (quiesce the miner
// first; the stream monitor is single-threaded between re-mines, which is
// the intended call point).
func (t *Tracer) Drain() *Trace {
	if t == nil {
		return &Trace{}
	}
	tr := t.Snapshot()
	for i := range tr.Events {
		seq := tr.Events[i].Seq
		t.pages[seq>>t.shift].Load().ready[seq&(1<<t.shift-1)].Store(0)
	}
	t.next.Store(0)
	return tr
}
