// Package bitmap provides uint64 bitsets and a per-value bitmap index over
// a dataset's categorical attributes and groups. Contrast set mining over
// categorical (or pre-binned) data reduces to intersecting value bitmaps
// and popcounting against group masks — the representation SciCSM (Zhu et
// al. 2015, the paper's ref [29]) builds its scientific-dataset contrast
// miner on. The STUCCO search uses this index for its candidate counting.
package bitmap

import (
	"math/bits"

	"sdadcs/internal/dataset"
)

// Set is a fixed-universe bitset over row indices 0..n-1.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over a universe of n rows.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Universe returns the universe size n.
func (s *Set) Universe() int { return s.n }

// Add inserts row i.
func (s *Set) Add(i int) {
	s.words[i>>6] |= 1 << uint(i&63)
}

// Contains reports whether row i is present.
func (s *Set) Contains(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And returns a new set s ∩ o.
func (s *Set) And(o *Set) *Set {
	out := New(s.n)
	for i, w := range s.words {
		out.words[i] = w & o.words[i]
	}
	return out
}

// AndAny reports whether s ∩ o is non-empty without materializing or
// counting it: it stops at the first word the two sets share.
func (s *Set) AndAny(o *Set) bool {
	ow := o.words[:len(s.words)]
	for i, w := range s.words {
		if w&ow[i] != 0 {
			return true
		}
	}
	return false
}

// AndInto writes s ∩ o into dst (which must share the universe) and
// returns dst; it avoids allocation in tight loops.
func (s *Set) AndInto(o, dst *Set) *Set {
	for i, w := range s.words {
		dst.words[i] = w & o.words[i]
	}
	return dst
}

// Fill sets every bit of the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := uint(s.n & 63); r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << r) - 1
	}
}

// Any reports whether at least one bit is set. It short-circuits on the
// first non-zero word, so it is cheaper than Count() > 0 for sparse
// prefixes and dense sets alike.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Rows materializes the set bits as sorted row indices.
func (s *Set) Rows() []int {
	return s.AppendRows(make([]int, 0, s.Count()))
}

// AppendRows appends the set bits, in ascending order, to dst and returns
// the extended slice — the allocation-free materialization path for callers
// that reuse a buffer across many covers.
func (s *Set) AppendRows(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi<<6+b)
			w &= w - 1
		}
	}
	return dst
}

// Index holds one bitmap per categorical value and per group of a dataset.
//
// Invariant: the group masks partition the universe — every row 0..n-1 is
// in exactly one group mask — and every bitmap's padding bits (positions n
// and above in the last word) are zero. The two-group counting kernel
// relies on both: a cover's group-1 count is its total minus its group-0
// count. NewIndex, the only constructor, builds indexes that hold it.
type Index struct {
	n int
	// values[attr][code] is the rows where the categorical attribute has
	// the code; nil for continuous attributes.
	values [][]*Set
	groups []*Set
}

// NewIndex builds the index over d's categorical attributes and groups.
func NewIndex(d *dataset.Dataset) *Index {
	idx := &Index{n: d.Rows(), values: make([][]*Set, d.NumAttrs())}
	idx.groups = codeSets(d.GroupCodes(), d.NumGroups())
	for _, attr := range d.CategoricalAttrs() {
		idx.values[attr] = codeSets(d.CatCodes(attr), len(d.Domain(attr)))
	}
	return idx
}

// codeSets returns, for a column of codes in [0, k), the set of rows
// holding each code. The sets share one backing array and are built a
// word at a time: each block of 64 rows ORs its bits straight into word w
// of its codes' sets, with no per-row Add. Only rows of the column set a
// bit, so padding bits stay zero.
func codeSets(codes []int, k int) []*Set {
	n := len(codes)
	nw := (n + 63) / 64
	words := make([]uint64, k*nw)
	sets := make([]Set, k)
	out := make([]*Set, k)
	for c := range sets {
		sets[c] = Set{words: words[c*nw : (c+1)*nw : (c+1)*nw], n: n}
		out[c] = &sets[c]
	}
	for w := 0; w < nw; w++ {
		block := codes[w*64 : min(n, w*64+64)]
		for j, c := range block {
			words[c*nw+w] |= 1 << uint(j)
		}
	}
	return out
}

// Rows returns the universe size.
func (ix *Index) Rows() int { return ix.n }

// NumBitmaps returns how many bitmaps the index holds (one per categorical
// value plus one per group) — the build cost the metrics layer reports.
func (ix *Index) NumBitmaps() int {
	n := len(ix.groups)
	for _, sets := range ix.values {
		n += len(sets)
	}
	return n
}

// Value returns the bitmap of rows where attr = code.
func (ix *Index) Value(attr, code int) *Set { return ix.values[attr][code] }

// Group returns the bitmap of rows in group g.
func (ix *Index) Group(g int) *Set { return ix.groups[g] }

// GroupCounts popcounts a cover against every group mask.
func (ix *Index) GroupCounts(cover *Set) []int {
	out := make([]int, len(ix.groups))
	ix.GroupCountsInto(cover, out)
	return out
}

// GroupCountsInto is the fused multi-mask popcount kernel: one pass over
// the cover's words counts the intersection with every group mask at once,
// so each cover word is loaded exactly once and zero cover words are
// skipped for all groups together (deep-level covers are sparse). The
// result is written into out (len = number of groups) and is exactly
// GroupCounts — the bit-identical guarantee the golden-equality tests pin.
func (ix *Index) GroupCountsInto(cover *Set, out []int) {
	ix.AndGroupCountsInto(cover, nil, out)
}

// AndGroupCountsInto counts the lazy cover a ∩ b against every group mask
// in the same single pass, without writing the intersection anywhere: the
// per-group counts of a child candidate whose cover is its parent's cover
// ANDed with one value bitmap. A nil b means a alone. a and b are sets
// over the index's universe, with zero padding bits.
func (ix *Index) AndGroupCountsInto(a, b *Set, out []int) {
	for g := range out {
		out[g] = 0
	}
	aw := a.words
	bw := aw
	if b != nil {
		bw = b.words[:len(aw)]
	}
	switch len(ix.groups) {
	case 2:
		// The paper's two-group case, hot enough to unroll. The masks
		// partition the universe and padding bits are zero (the Index
		// invariant), so group 1's count is the cover's total minus group
		// 0's: three word streams (a, b, group 0) and no branch per word.
		g0 := ix.groups[0].words[:len(aw)]
		t, c0 := 0, 0
		for i, w := range aw {
			w &= bw[i]
			t += bits.OnesCount64(w)
			c0 += bits.OnesCount64(w & g0[i])
		}
		out[0], out[1] = c0, t-c0
	default:
		for i, w := range aw {
			w &= bw[i]
			if w == 0 {
				continue
			}
			for g, gs := range ix.groups {
				out[g] += bits.OnesCount64(w & gs.words[i])
			}
		}
	}
}

// All returns a full-universe set.
func (ix *Index) All() *Set {
	s := New(ix.n)
	s.Fill()
	return s
}

// Shared returns the dataset's cached index, building it on first use
// through the dataset's Index slot — one build per dataset ever, shared by
// every Mine call and serve job holding the dataset. The index is
// immutable after construction, so sharing needs no further locking.
// built reports whether this call paid for the build (the signal the
// build-count metrics record).
func Shared(d *dataset.Dataset) (ix *Index, built bool) {
	v, built := d.Index().LoadOrBuild(func() any { return NewIndex(d) })
	return v.(*Index), built
}
