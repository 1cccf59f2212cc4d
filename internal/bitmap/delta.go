package bitmap

import "sdadcs/internal/dataset"

// DeltaIndex is the incrementally-maintained twin of Index for sliding
// windows: one bitmap per categorical value string and per group label,
// over a fixed universe of ring-buffer positions. Where Index is built by
// scanning every row of a dataset, a DeltaIndex is updated one row at a
// time — when the window slides, the departing row's bits are XOR-ed out
// and the arriving row's bits XOR-ed in, so maintenance costs O(columns)
// bit flips per append instead of an O(rows × columns) rebuild per
// re-mine.
//
// Bitmaps are keyed by value *string* (not domain code): ring positions
// outlive any single snapshot, and snapshot datasets re-assign domain
// codes in first-appearance order every window. Materialize translates the
// position-space bitmaps into a snapshot dataset's code space and row
// order, producing an Index bit-identical to NewIndex over that snapshot —
// the guarantee the stream battery asserts.
type DeltaIndex struct {
	n    int // universe: ring positions 0..n-1
	cats []map[string]*Set
	grps map[string]*Set
}

// NewDeltaIndex builds an empty delta index over n ring positions,
// tracking catCols categorical columns plus the group column.
func NewDeltaIndex(n, catCols int) *DeltaIndex {
	di := &DeltaIndex{
		n:    n,
		cats: make([]map[string]*Set, catCols),
		grps: make(map[string]*Set),
	}
	for i := range di.cats {
		di.cats[i] = make(map[string]*Set)
	}
	return di
}

// set returns the bitmap for value in m, creating it on first sight. A
// value that later leaves the window keeps its (empty) bitmap: the map
// grows with distinct values ever seen, not with window size.
func (di *DeltaIndex) set(m map[string]*Set, value string) *Set {
	s, ok := m[value]
	if !ok {
		s = New(di.n)
		m[value] = s
	}
	return s
}

// UpdateCat records that categorical column col at ring position pos
// changed from old to new. had reports whether the position held a row
// before (false while the window is still filling). old == new is a
// no-op: XOR-ing the same bit out and back in would only waste the flips.
func (di *DeltaIndex) UpdateCat(col, pos int, old, new string, had bool) {
	if had {
		if old == new {
			return
		}
		di.set(di.cats[col], old).Flip(pos)
	}
	di.set(di.cats[col], new).Flip(pos)
}

// UpdateGroup records the group label change at ring position pos,
// mirroring UpdateCat.
func (di *DeltaIndex) UpdateGroup(pos int, old, new string, had bool) {
	if had {
		if old == new {
			return
		}
		di.set(di.grps, old).Flip(pos)
	}
	di.set(di.grps, new).Flip(pos)
}

// scatterInto maps src's position-space bits into dst's snapshot row
// space: ring position p becomes snapshot row (p-start+n) mod n. While
// the window is still filling, start is 0 and the mapping is the
// identity; once full it is a rotation. Cost is O(popcount), and summed
// over all values of one column the popcounts add up to the live row
// count — the same order as one column scan of a rebuild, but with no
// value encoding, hashing, or per-row branches.
func scatterInto(src *Set, start, n int, dst *Set) {
	if src == nil {
		return
	}
	src.ForEach(func(p int) {
		j := p - start
		if j < 0 {
			j += n
		}
		dst.Add(j)
	})
}

// Materialize translates the maintained bitmaps into a ready Index for a
// snapshot dataset d whose row i is ring position (start+i) mod n, for
// count live rows. catAttrs[col] is d's attribute index of delta column
// col. The result is bit-identical to NewIndex(d): every domain value of
// d came from a live row, so its position bitmap exists and holds exactly
// those rows; values whose bitmaps have gone empty are absent from d's
// domain and are skipped.
func (di *DeltaIndex) Materialize(d *dataset.Dataset, start, count int, catAttrs []int) *Index {
	idx := &Index{
		n:      count,
		values: make([][]*Set, d.NumAttrs()),
		groups: make([]*Set, d.NumGroups()),
	}
	for g := range idx.groups {
		dst := New(count)
		scatterInto(di.grps[d.GroupName(g)], start, di.n, dst)
		idx.groups[g] = dst
	}
	for col, attr := range catAttrs {
		domain := d.Domain(attr)
		sets := make([]*Set, len(domain))
		for code, value := range domain {
			dst := New(count)
			scatterInto(di.cats[col][value], start, di.n, dst)
			sets[code] = dst
		}
		idx.values[attr] = sets
	}
	return idx
}

// EqualIndex reports whether two indexes hold identical bitmaps — the
// assertion surface for incremental-vs-rebuild bit-identity tests.
func EqualIndex(a, b *Index) bool {
	if a.n != b.n || len(a.groups) != len(b.groups) || len(a.values) != len(b.values) {
		return false
	}
	for g := range a.groups {
		if !a.groups[g].Equal(b.groups[g]) {
			return false
		}
	}
	for attr := range a.values {
		if (a.values[attr] == nil) != (b.values[attr] == nil) || len(a.values[attr]) != len(b.values[attr]) {
			return false
		}
		for code := range a.values[attr] {
			if !a.values[attr][code].Equal(b.values[attr][code]) {
				return false
			}
		}
	}
	return true
}
