package dataset

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzFromCSV checks that arbitrary CSV input never panics the loader,
// that it loads exactly what the two-pass reference loader does (the same
// dataset or the same error text), and that anything it accepts survives a
// write/read round trip. force names a column to load as categorical.
func FuzzFromCSV(f *testing.F) {
	f.Add("x,grp\n1,A\n2,B\n", "")
	f.Add("a,b,grp\n1,foo,A\n2,bar,B\n3,foo,A\n", "")
	f.Add("grp\nA\nB\n", "")
	f.Add("x,grp\n1,A\n", "")           // single group: must error, not panic
	f.Add("x,grp\nnan,A\ninf,B\n", "")  // special float spellings
	f.Add("x,grp\n1e308,A\n-1,B\n", "") // extreme magnitudes
	f.Add(",\n,\n", "")
	f.Add("x,grp\n\"quoted,comma\",A\nplain,B\n", "")
	var late strings.Builder // numeric for 100 rows, then demoted
	late.WriteString("x,y,grp\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&late, "%d,%d.5,%c\n", i, i%7, 'A'+rune(i%2))
	}
	late.WriteString("x,?,A\n")
	f.Add(late.String(), "")
	f.Add("x,m,grp\n1,,A\n2,?,B\n3,NA,A\n", "")              // all-missing column
	f.Add("x,grp\ninf,A\n-Inf,B\n+inf,A\n", "")              // an infinite column
	f.Add("id,x,grp\n1,2.5,A\n2,3.5,B\n1,4.5,A\n", "id")     // forced categorical
	f.Add("x,grp\n,A\n?,B\nNA,A\nNaN,B\nnan,A\n1,B\n", "")   // every missing spelling
	f.Add("x,grp\n-nan,A\n+NaN,B\n1,A\n", "")                // NaN spellings ParseFloat reads
	f.Add("x,y,grp\n\"1,5\",\"a,b\",A\n\"2\",\"c\",B\n", "") // quoted commas
	f.Add("x,grp\n1,A\n2,B,extra\n", "")                     // ragged row
	f.Add("x,grp\n-0,A\n0,B\n0x1p-2,A\n1_000,B\n", "")       // signed zero, hex, underscores
	f.Add("grp,x,grp\nA,1,B\nB,2,A\n", "")                   // repeated group header

	f.Fuzz(func(t *testing.T, input, force string) {
		opts := CSVOptions{GroupColumn: "grp", ForceCategorical: []string{force}}
		d, err := FromCSV(strings.NewReader(input), opts)
		ref, refErr := referenceFromCSV(strings.NewReader(input), opts)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("error %v, reference error %v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("error %q, reference error %q", err, refErr)
			}
			return // rejection is fine; panics are not
		}
		if diff := datasetDiff(d, ref); diff != "" {
			t.Fatalf("loaded dataset differs from the reference: %s", diff)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d, "grp"); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		d2, err := FromCSV(bytes.NewReader(buf.Bytes()), CSVOptions{GroupColumn: "grp"})
		if err != nil {
			t.Fatalf("round trip rejected: %v\ncsv:\n%s", err, buf.String())
		}
		if d2.Rows() != d.Rows() || d2.NumAttrs() != d.NumAttrs() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				d.Rows(), d.NumAttrs(), d2.Rows(), d2.NumAttrs())
		}
	})
}

// datasetDiff describes the first difference between two datasets, or
// returns "" when they are identical: name, rows, attributes (name, kind
// and column), categorical codes and domains, the Float64bits of every
// continuous value (NaN included), and group codes and names.
func datasetDiff(a, b *Dataset) string {
	sameBits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	switch {
	case a.name != b.name || a.rows != b.rows:
		return fmt.Sprintf("%s with %d rows, want %s with %d", a.name, a.rows, b.name, b.rows)
	case !slices.Equal(a.attrs, b.attrs):
		return fmt.Sprintf("attributes %v, want %v", a.attrs, b.attrs)
	case !slices.EqualFunc(a.catCols, b.catCols, slices.Equal[[]int]):
		return "categorical codes differ"
	case !slices.EqualFunc(a.catDomains, b.catDomains, slices.Equal[[]string]):
		return fmt.Sprintf("domains %q, want %q", a.catDomains, b.catDomains)
	case !slices.EqualFunc(a.contCols, b.contCols, sameBits):
		return "continuous values differ"
	case !slices.Equal(a.groups, b.groups):
		return "group codes differ"
	case !slices.Equal(a.groupNames, b.groupNames):
		return fmt.Sprintf("group names %q, want %q", a.groupNames, b.groupNames)
	}
	return ""
}
