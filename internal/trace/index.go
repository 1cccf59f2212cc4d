package trace

import "sdadcs/internal/pattern"

// Index is the pattern-provenance index: every event that names an
// itemset, grouped per itemset in sequence order. It powers the explain
// query path (core.Explain / `cmd/contrast -explain`). Itemsets are
// grouped by their compact keys, which are equal exactly when their
// canonical keys are, so building the index formats no key.
type Index struct {
	bySet map[string][]Event
	order []Event // all events, sequence order
}

// NewIndex builds the provenance index of a trace.
func NewIndex(tr *Trace) *Index {
	ix := &Index{bySet: make(map[string][]Event)}
	if tr == nil {
		return ix
	}
	ix.order = tr.Events
	var buf []byte
	for _, e := range tr.Events {
		if e.Set.Len() == 0 {
			continue
		}
		buf = e.Set.AppendCompactKey(buf[:0])
		ix.bySet[string(buf)] = append(ix.bySet[string(buf)], e)
	}
	return ix
}

// Events returns the decision chain recorded for an itemset, in sequence
// order (nil when the pattern never generated an event).
func (ix *Index) Events(set pattern.Itemset) []Event { return ix.bySet[set.CompactKey()] }

// Keys reports how many distinct patterns have provenance.
func (ix *Index) Keys() int { return len(ix.bySet) }

// All returns every event in sequence order.
func (ix *Index) All() []Event { return ix.order }
