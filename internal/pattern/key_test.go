package pattern

import (
	"math"
	"testing"
)

// TestParseKeyRoundTrip is the property the trace provenance index relies
// on: ParseKey(s.Key()) reproduces s bit for bit, including non-dyadic
// continuous bounds and open intervals.
func TestParseKeyRoundTrip(t *testing.T) {
	sets := []Itemset{
		NewItemset(),
		NewItemset(CatItem(0, 3)),
		NewItemset(CatItem(2, 0), CatItem(5, 11)),
		NewItemset(RangeItem(1, 0, 10)),
		NewItemset(RangeItem(1, math.Inf(-1), 26.5)),
		NewItemset(RangeItem(3, 0.1, math.Inf(1))),
		NewItemset(RangeItem(0, -1.5, 2.25), CatItem(4, 7)),
		NewItemset(RangeItem(2, 1.0/3.0, math.Pi)),        // non-dyadic bounds
		NewItemset(RangeItem(1, math.Copysign(0, -1), 1)), // negative zero
	}
	for _, s := range sets {
		key := s.Key()
		back, err := ParseKey(key)
		if err != nil {
			t.Errorf("ParseKey(%q) error: %v", key, err)
			continue
		}
		if back.Key() != key {
			t.Errorf("round trip broke: %q -> %q", key, back.Key())
		}
		a, b := s.Items(), back.Items()
		if len(a) != len(b) {
			t.Errorf("key %q: item count %d -> %d", key, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("key %q item %d: %+v != %+v", key, i, a[i], b[i])
			}
		}
	}
}

// TestParseKeyExactBounds pins that continuous bounds survive with full
// float64 precision (the 'b' mantissa/exponent encoding is lossless).
func TestParseKeyExactBounds(t *testing.T) {
	lo, hi := 0.1, math.Nextafter(0.1, 1)
	s := NewItemset(RangeItem(0, lo, hi))
	back, err := ParseKey(s.Key())
	if err != nil {
		t.Fatal(err)
	}
	r := back.Items()[0].Range
	if r.Lo != lo || r.Hi != hi {
		t.Errorf("bounds drifted: got (%v, %v], want (%v, %v]", r.Lo, r.Hi, lo, hi)
	}
}

func TestParseKeyErrors(t *testing.T) {
	bad := []string{
		"x=1",       // non-numeric attr
		"0=abc",     // non-numeric code
		"0",         // no separator
		"0@1",       // range missing comma
		"0@a,b",     // unparseable bounds
		"0@1p2p3,4", // malformed exponent
		"0=1|",      // trailing empty part
	}
	for _, k := range bad {
		if _, err := ParseKey(k); err == nil {
			t.Errorf("ParseKey(%q) accepted malformed key", k)
		}
	}
}

func TestParseKeyEmptyIsEmptySet(t *testing.T) {
	s, err := ParseKey("")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Items()) != 0 {
		t.Errorf("empty key parsed to %d items", len(s.Items()))
	}
}
