package pattern

import (
	"sort"
	"strings"

	"sdadcs/internal/dataset"
)

// Itemset is a conjunction of items, at most one per attribute, kept sorted
// by attribute index so equal itemsets have equal canonical keys.
type Itemset struct {
	items []Item
}

// NewItemset builds an itemset from items; they are copied and sorted by
// attribute. Multiple items on the same attribute are not checked here —
// the miners never produce them — but Key would still be canonical.
func NewItemset(items ...Item) Itemset {
	cp := make([]Item, len(items))
	copy(cp, items)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Attr < cp[j].Attr })
	return Itemset{items: cp}
}

// SortedItemset wraps items that are already in strictly ascending
// attribute order, without copying or sorting them: the itemset keeps the
// slice, so the caller must not modify it afterwards. It is NewItemset
// for a caller that builds each itemset in its own exact-size slice.
func SortedItemset(items []Item) Itemset {
	return Itemset{items: items}
}

// Len returns the number of items.
func (s Itemset) Len() int { return len(s.items) }

// Item returns the i-th item (in attribute order).
func (s Itemset) Item(i int) Item { return s.items[i] }

// Items returns a copy of the items.
func (s Itemset) Items() []Item {
	cp := make([]Item, len(s.items))
	copy(cp, s.items)
	return cp
}

// With returns a new itemset with the extra item added (or replacing an
// existing item on the same attribute).
func (s Itemset) With(it Item) Itemset {
	if n := len(s.items); n == 0 || s.items[n-1].Attr < it.Attr {
		// Appending past the last attribute keeps the order: copy into a
		// fresh slice (never the receiver's backing array, which sibling
		// itemsets share) with no re-sort.
		out := make([]Item, n+1)
		copy(out, s.items)
		out[n] = it
		return Itemset{items: out}
	}
	out := make([]Item, 0, len(s.items)+1)
	replaced := false
	for _, x := range s.items {
		if x.Attr == it.Attr {
			out = append(out, it)
			replaced = true
		} else {
			out = append(out, x)
		}
	}
	if !replaced {
		out = append(out, it)
	}
	return NewItemset(out...)
}

// Without returns a new itemset with the item on the given attribute
// removed.
func (s Itemset) Without(attr int) Itemset {
	out := make([]Item, 0, len(s.items))
	for _, x := range s.items {
		if x.Attr != attr {
			out = append(out, x)
		}
	}
	return Itemset{items: out}
}

// ItemOn returns the item on the given attribute, if any.
func (s Itemset) ItemOn(attr int) (Item, bool) {
	for _, x := range s.items {
		if x.Attr == attr {
			return x, true
		}
	}
	return Item{}, false
}

// Attrs returns the attribute indices used by the itemset, in order.
func (s Itemset) Attrs() []int {
	out := make([]int, len(s.items))
	for i, x := range s.items {
		out[i] = x.Attr
	}
	return out
}

// Key returns a canonical string encoding; equal itemsets (same items) have
// equal keys. Used as the lookup-table key for pruning.
func (s Itemset) Key() string {
	parts := make([]string, len(s.items))
	for i, x := range s.items {
		parts[i] = x.Key()
	}
	return strings.Join(parts, "|")
}

// Equal reports whether both itemsets contain exactly the same items.
func (s Itemset) Equal(o Itemset) bool {
	if len(s.items) != len(o.items) {
		return false
	}
	for i := range s.items {
		if !s.items[i].Equal(o.items[i]) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every item of s also appears (exactly) in o.
func (s Itemset) SubsetOf(o Itemset) bool {
	if len(s.items) > len(o.items) {
		return false
	}
	for _, x := range s.items {
		y, ok := o.ItemOn(x.Attr)
		if !ok || !x.Equal(y) {
			return false
		}
	}
	return true
}

// Generalizes reports whether s's conditions are implied by o's: every item
// of s subsumes the corresponding item of o (same attribute, wider or equal
// range / equal category). A generalization covers at least the rows its
// specialization covers.
func (s Itemset) Generalizes(o Itemset) bool {
	if len(s.items) > len(o.items) {
		return false
	}
	for _, x := range s.items {
		y, ok := o.ItemOn(x.Attr)
		if !ok || !x.Subsumes(y) {
			return false
		}
	}
	return true
}

// Matches reports whether every item holds at the given dataset row.
func (s Itemset) Matches(d *dataset.Dataset, row int) bool {
	for _, x := range s.items {
		if !x.Matches(d, row) {
			return false
		}
	}
	return true
}

// Cover returns the view rows matched by the itemset.
func (s Itemset) Cover(v dataset.View) dataset.View {
	d := v.Dataset()
	return v.Filter(func(row int) bool { return s.Matches(d, row) })
}

// Format renders the itemset as "item and item and ...".
func (s Itemset) Format(d *dataset.Dataset) string {
	if len(s.items) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(s.items))
	for i, x := range s.items {
		parts[i] = x.Format(d)
	}
	return strings.Join(parts, " and ")
}

// Volume returns the product of the widths of the continuous items' ranges —
// the hyper-volume the paper sorts spaces by before merging (area for two
// continuous attributes, volume for three, …). Categorical items do not
// contribute. An itemset with no continuous items has volume 0 so that pure
// categorical itemsets sort first.
func (s Itemset) Volume() float64 {
	vol := 0.0
	first := true
	for _, x := range s.items {
		if x.Kind != dataset.Continuous {
			continue
		}
		w := x.Range.Width()
		if first {
			vol = w
			first = false
		} else {
			vol *= w
		}
	}
	return vol
}
