// Package topk maintains the best-k contrast list that drives the miner's
// dynamic minimum-support threshold: until k contrasts have been found, the
// threshold is the user's δ; afterwards it is the k-th best score, so the
// optimistic-estimate pruning tightens as better contrasts appear (§3,
// "Top-k pattern mining").
package topk

import (
	"container/heap"
	"math"

	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// List is a bounded best-k collection of contrasts keyed by itemset, with a
// dynamic admission threshold. The zero value is not usable; call New.
type List struct {
	k     int
	delta float64
	h     scoreHeap
	keys  map[string]int // itemset key -> heap index
	rec   *metrics.Recorder
	tr    *trace.Tracer
}

// New returns a list keeping the k highest-scoring contrasts, with delta as
// the threshold floor while the list is not yet full. k <= 0 means
// unbounded (the threshold stays at delta).
func New(k int, delta float64) *List {
	return &List{k: k, delta: delta, keys: make(map[string]int)}
}

// WithRecorder attaches an instrumentation sink that observes admission-
// threshold changes — the dynamic tightening the §3 top-k strategy feeds
// into the optimistic-estimate pruning. nil (the default) disables the
// observation. Returns the list for chaining.
func (l *List) WithRecorder(r *metrics.Recorder) *List {
	l.rec = r
	return l
}

// WithTracer attaches a decision-event sink that records every list
// transition — admissions, replacements, evictions and rejections — with
// the threshold before and after (the provenance of "why is this pattern
// not in the top-k"). nil (the default) disables the events. Returns the
// list for chaining.
func (l *List) WithTracer(t *trace.Tracer) *List {
	l.tr = t
	return l
}

// Len returns the number of stored contrasts.
func (l *List) Len() int { return len(l.h.items) }

// K returns the capacity (0 = unbounded).
func (l *List) K() int { return l.k }

// Threshold returns the k-th best score once the list is full, and −Inf
// before that (and always for an unbounded list). The threshold is what
// the miner's optimistic-estimate pruning compares against, so its only
// sound values are "the score a candidate must beat to enter the list"
// (the root of the full heap) or "nothing to beat yet" (−Inf). It used to
// return δ while filling, conflating the admission floor with the dynamic
// threshold; the floor is a property of Add, not of the pruning bound —
// and for an unbounded list there is never anything to beat, which is what
// lets the correctness oracle disable recursion pruning entirely.
//
// Monotonicity: while only Add is called, the threshold never decreases —
// an eviction replaces the root with a strictly better entry. Remove (the
// merge phase) legitimately lowers it by reopening a slot.
func (l *List) Threshold() float64 {
	if l.k <= 0 || len(l.h.items) < l.k {
		return math.Inf(-1)
	}
	return l.h.items[0].Score
}

// Add offers a contrast. A contrast is accepted if its score exceeds the
// current threshold, or if the list still has room and the score is at
// least δ. A contrast whose itemset is already present replaces the stored
// entry when its score is higher. It reports whether the list changed.
func (l *List) Add(c pattern.Contrast) bool {
	if l.rec == nil && l.tr == nil {
		changed, _, _, _ := l.add(c)
		return changed
	}
	before := l.Threshold()
	changed, verdict, evicted, didEvict := l.add(c)
	after := l.Threshold()
	if l.rec != nil && changed && after != before {
		l.rec.ThresholdUpdate(after)
	}
	if l.tr.Enabled() {
		if verdict == "rejected" {
			// V2 carries the score that failed admission (see trace.KindTopK).
			l.tr.TopK(c.Set, verdict, before, c.Score)
		} else {
			l.tr.TopK(c.Set, verdict, before, after)
		}
		if didEvict {
			l.tr.TopK(evicted, "evicted", before, after)
		}
	}
	return changed
}

// add performs the list transition and names it in the KindTopK verdict
// vocabulary; when didEvict is set, evicted is the itemset pushed out to
// make room.
func (l *List) add(c pattern.Contrast) (changed bool, verdict string, evicted pattern.Itemset, didEvict bool) {
	// A NaN score is unordered against every threshold comparison below;
	// admitting one would corrupt the heap invariant and poison the
	// dynamic threshold. NaN contrasts are never admissible.
	if math.IsNaN(c.Score) {
		return false, "rejected", pattern.Itemset{}, false
	}
	key := c.Set.Key()
	if idx, ok := l.keys[key]; ok {
		if c.Score <= l.h.items[idx].Score {
			return false, "rejected", pattern.Itemset{}, false
		}
		l.h.items[idx] = entry{Contrast: c, key: key}
		heap.Fix(&l.h, idx)
		l.reindex()
		return true, "replaced", pattern.Itemset{}, false
	}
	if l.k > 0 && len(l.h.items) >= l.k {
		// Admit iff the candidate beats the worst stored entry under the
		// same total order the heap maintains: score descending, then key
		// ascending. Breaking score ties on the key makes the final list
		// content independent of arrival order (the Workers=1 vs N
		// metamorphic invariant); a plain score comparison let whichever
		// tied contrast arrived first keep the slot.
		root := &l.h.items[0]
		if c.Score < root.Score || (c.Score == root.Score && key >= root.key) {
			return false, "rejected", pattern.Itemset{}, false
		}
		out := l.h.items[0]
		l.h.items[0] = entry{Contrast: c, key: key}
		delete(l.keys, out.key)
		l.keys[key] = 0
		heap.Fix(&l.h, 0)
		l.reindex()
		return true, "admitted", out.Set, true
	}
	if c.Score < l.delta {
		return false, "rejected", pattern.Itemset{}, false
	}
	heap.Push(&l.h, entry{Contrast: c, key: key})
	l.reindex()
	return true, "admitted", pattern.Itemset{}, false
}

// reindex rebuilds the key -> heap index map after heap movement. The heap
// is small (k ≤ a few hundred), so a full rebuild keeps the code simple.
func (l *List) reindex() {
	for i, e := range l.h.items {
		l.keys[e.key] = i
	}
}

// Remove deletes the contrast with the given itemset key, reporting whether
// it was present. Used by the merging phase, which replaces specialized
// spaces with their union.
func (l *List) Remove(key string) bool {
	idx, ok := l.keys[key]
	if !ok {
		return false
	}
	heap.Remove(&l.h, idx)
	delete(l.keys, key)
	l.reindex()
	return true
}

// Get returns the stored contrast for an itemset key.
func (l *List) Get(key string) (pattern.Contrast, bool) {
	if idx, ok := l.keys[key]; ok {
		return l.h.items[idx].Contrast, true
	}
	return pattern.Contrast{}, false
}

// Contrasts returns the stored contrasts sorted by descending score
// (deterministic: ties break on itemset key).
func (l *List) Contrasts() []pattern.Contrast {
	out := make([]pattern.Contrast, len(l.h.items))
	for i, e := range l.h.items {
		out[i] = e.Contrast
	}
	pattern.SortContrasts(out)
	return out
}

type entry struct {
	pattern.Contrast
	key string
}

// scoreHeap is a min-heap on score (worst contrast at the root) with
// deterministic tie-breaking on the itemset key.
type scoreHeap struct {
	items []entry
}

func (h scoreHeap) Len() int { return len(h.items) }
func (h scoreHeap) Less(i, j int) bool {
	if h.items[i].Score != h.items[j].Score {
		return h.items[i].Score < h.items[j].Score
	}
	return h.items[i].key > h.items[j].key
}
func (h scoreHeap) Swap(i, j int)       { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *scoreHeap) Push(x interface{}) { h.items = append(h.items, x.(entry)) }
func (h *scoreHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
