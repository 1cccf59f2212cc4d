package pattern

import "testing"

// FuzzParseKey checks that arbitrary keys never panic the parser and that
// every accepted key has a canonical form: re-parsing the itemset's Key()
// gives the same Key() again.
func FuzzParseKey(f *testing.F) {
	f.Add("")
	f.Add("0=3")
	f.Add("2=0|5=11")
	f.Add("1@-inf,6917529027641081856p-58")
	f.Add("0@-6755399441055744p-52,4503599627370496p-51|4=7")
	f.Add("0@0,1|0=1")     // two items on one attribute
	f.Add("-1=0")          // negative attribute
	f.Add("0@-0,NaN")      // signed zero and NaN bounds
	f.Add("0@1p2p3,4")     // malformed exponent
	f.Add("0=1|")          // trailing empty part
	f.Add("3@1e400,0x1p3") // out-of-range decimal, hex float

	f.Fuzz(func(t *testing.T, key string) {
		s, err := ParseKey(key)
		if err != nil {
			return // rejection is fine; panics are not
		}
		canon := s.Key()
		back, err := ParseKey(canon)
		if err != nil {
			t.Fatalf("ParseKey(%q) accepted, but its Key() %q is rejected: %v", key, canon, err)
		}
		if got := back.Key(); got != canon {
			t.Fatalf("ParseKey(%q): Key() %q re-parses to Key() %q", key, canon, got)
		}
	})
}
