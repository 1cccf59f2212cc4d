package pattern

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"sdadcs/internal/dataset"
)

// ParseKey inverts Itemset.Key: it reconstructs the itemset encoded by a
// canonical key. Keys are exact (continuous bounds are serialized with a
// binary mantissa/exponent), so ParseKey(s.Key()) equals s bit for bit —
// the property the trace provenance index relies on when it renders
// decision chains for patterns it only knows by key.
func ParseKey(key string) (Itemset, error) {
	if key == "" {
		return NewItemset(), nil
	}
	parts := strings.Split(key, "|")
	items := make([]Item, 0, len(parts))
	for _, p := range parts {
		it, err := parseItemKey(p)
		if err != nil {
			return Itemset{}, err
		}
		items = append(items, it)
	}
	return NewItemset(items...), nil
}

// parseItemKey parses one item key: "attr=code" (categorical) or
// "attr@lo,hi" (continuous, keyBound-encoded bounds).
func parseItemKey(p string) (Item, error) {
	if i := strings.IndexByte(p, '='); i >= 0 {
		attr, err1 := strconv.Atoi(p[:i])
		code, err2 := strconv.Atoi(p[i+1:])
		if err1 != nil || err2 != nil {
			return Item{}, fmt.Errorf("pattern: bad categorical item key %q", p)
		}
		return CatItem(attr, code), nil
	}
	i := strings.IndexByte(p, '@')
	if i < 0 {
		return Item{}, fmt.Errorf("pattern: bad item key %q", p)
	}
	attr, err := strconv.Atoi(p[:i])
	if err != nil {
		return Item{}, fmt.Errorf("pattern: bad item key %q: %v", p, err)
	}
	rest := p[i+1:]
	j := strings.IndexByte(rest, ',')
	if j < 0 {
		return Item{}, fmt.Errorf("pattern: bad range item key %q", p)
	}
	lo, err := parseKeyBound(rest[:j])
	if err != nil {
		return Item{}, fmt.Errorf("pattern: bad range lo in %q: %v", p, err)
	}
	hi, err := parseKeyBound(rest[j+1:])
	if err != nil {
		return Item{}, fmt.Errorf("pattern: bad range hi in %q: %v", p, err)
	}
	return Item{Attr: attr, Kind: dataset.Continuous, Range: Interval{Lo: lo, Hi: hi}}, nil
}

// parseKeyBound inverts keyBound: "-inf"/"inf" or strconv's 'b' format
// ("<mantissa>p<exponent>", decimal mantissa, base-2 exponent) — which
// strconv.ParseFloat does not accept, so the split is done by hand.
func parseKeyBound(s string) (float64, error) {
	switch s {
	case "-inf":
		return math.Inf(-1), nil
	case "inf":
		return math.Inf(1), nil
	}
	i := strings.IndexByte(s, 'p')
	if i < 0 {
		// Plain decimal (0 is formatted as "0").
		return strconv.ParseFloat(s, 64)
	}
	mant, err := strconv.ParseInt(s[:i], 10, 64)
	if err != nil {
		return 0, err
	}
	exp, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return 0, err
	}
	if mant == 0 && s[0] == '-' {
		// keyBound writes negative zero as "-0p-1074"; ParseInt drops the
		// sign of a zero mantissa.
		return math.Copysign(0, -1), nil
	}
	return math.Ldexp(float64(mant), exp), nil
}

// Compact keys are the binary twin of Key for the miner's hash-map
// lookups (the §4.1 lookup table, the support memo, the merge dedup):
// appended into a caller's buffer, with no float formatting. Two itemsets
// have equal compact keys exactly when their Key strings are equal.
const (
	compactCat   byte = 'c'
	compactRange byte = 'r'
)

// AppendCompactKey appends the item's compact key to buf and returns the
// extended slice: a tag byte, uvarint(attr) and uvarint(code) for a
// categorical item; a tag byte, uvarint(attr) and the 8-byte Float64bits
// of Lo and then Hi for a range item. The tag fixes the layout and a
// uvarint ends itself, so no item's encoding is a prefix of another's.
// Signed zeros stay apart, as in Key; every NaN bound encodes alike,
// because Key writes every NaN as "NaN".
func (it Item) AppendCompactKey(buf []byte) []byte {
	if it.Kind == dataset.Categorical {
		buf = append(buf, compactCat)
		buf = binary.AppendUvarint(buf, uint64(it.Attr))
		return binary.AppendUvarint(buf, uint64(it.Code))
	}
	buf = append(buf, compactRange)
	buf = binary.AppendUvarint(buf, uint64(it.Attr))
	buf = binary.LittleEndian.AppendUint64(buf, compactBound(it.Range.Lo))
	return binary.LittleEndian.AppendUint64(buf, compactBound(it.Range.Hi))
}

// compactBound is a range bound's bit pattern, with every NaN folded onto
// one.
func compactBound(x float64) uint64 {
	if x != x {
		return canonicalNaN
	}
	return math.Float64bits(x)
}

var canonicalNaN = math.Float64bits(math.NaN())

// AppendCompactKey appends the itemset's compact key to buf: its items'
// encodings concatenated in attribute order.
func (s Itemset) AppendCompactKey(buf []byte) []byte {
	for _, x := range s.items {
		buf = x.AppendCompactKey(buf)
	}
	return buf
}

// CompactKey returns the itemset's compact key as a string, for use as a
// map key.
func (s Itemset) CompactKey() string {
	var stack [64]byte
	return string(s.AppendCompactKey(stack[:0]))
}
