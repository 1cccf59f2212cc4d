package dataset

import (
	"math/rand"
	"strings"
	"testing"
)

// TestInternerMatchesMap holds encode, and so the interner behind it, to a
// map-based first-appearance encoding. The values are empty, short values
// that share prefixes ("ab", "abb"), longer values differing only in one
// byte anywhere, and enough distinct values to grow the table several
// times.
func TestInternerMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := strings.Repeat("abcdefghij", 5)
	var values []string
	for i := 0; i < 20000; i++ {
		n := rng.Intn(len(base) + 1)
		v := []byte(base[:n])
		if n > 0 && rng.Intn(2) == 0 {
			v[rng.Intn(n)] = "xyz"[rng.Intn(3)]
		}
		values = append(values, string(v))
	}
	values = append(values, "", "a", "ab", "abb", "abbb", "abab", "ab\x00")
	for i := 0; i < 3000; i++ {
		values = append(values, base[:rng.Intn(4)], string(rune('a'+rng.Intn(26)))+string(rune('a'+rng.Intn(26))))
	}

	codes, domain := encode(values)
	index := map[string]int{}
	var want []string
	for i, v := range values {
		c, ok := index[v]
		if !ok {
			c = len(want)
			index[v] = c
			want = append(want, v)
		}
		if codes[i] != c {
			t.Fatalf("value %d %q: code %d, want %d", i, v, codes[i], c)
		}
	}
	if len(domain) != len(want) {
		t.Fatalf("domain has %d values, want %d", len(domain), len(want))
	}
	for c := range want {
		if domain[c] != want[c] {
			t.Fatalf("domain[%d] = %q, want %q", c, domain[c], want[c])
		}
	}
}
