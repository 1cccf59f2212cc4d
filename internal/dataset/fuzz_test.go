package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// errAfterInput is the error FuzzFromCSV's failing reader returns after
// the input's last byte.
var errAfterInput = errors.New("read failed")

// FuzzFromCSV checks that arbitrary CSV input never panics the loader,
// that it loads exactly what the two-pass reference loader does (the same
// dataset or the same error text), and that anything it accepts survives a
// write/read round trip, or fails to write when an attribute has the group
// column's name. force names a column to load as categorical.
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
	// The tokenizer's cases: line endings, quoting and the header's bytes.
	f.Add("x,grp\r\n1,A\r\n2,B\r\n", "")                   // CRLF endings
	f.Add("x,grp\n1,A\n\n\r\n2,B\n", "")                   // blank lines between records
	f.Add("x,grp\n1,A\n2,B", "")                           // last record with no newline
	f.Add("x,grp\n1,A\n2,B\r", "")                         // a \r before EOF
	f.Add("x,grp\n\"a\nb\",A\n\"c\r\n\nd\",B\n", "")       // quoted fields spanning lines
	f.Add("x,grp\n\"say \"\"hi\"\"\",A\n\"\"\"\",B\n", "") // "" escapes
	f.Add("x,grp\n1,A\na\"b,B\n", "")                      // bare quote in an unquoted field
	f.Add("x,grp\n1,A\n\"a\"b,B\n", "")                    // text after a closing quote
	f.Add("x,grp\n\"a\n\"b,A\n", "")                       // text after a closing quote, line 2
	f.Add("x,grp\n1,A\n\"ab\n", "")                        // input ends inside quotes
	f.Add("x,grp\na\rb,A\nc\r,B\n", "")                    // a lone \r inside a field
	f.Add("\ufeffx,grp\n1,A\n2,B\n", "")                   // UTF-8 BOM on the header
	f.Add("\ufeffgrp,x\nA,1\nB,2\n", "")                   // BOM hides the group column
	var quotedLate strings.Builder                         // quoted numbers for 50 rows, then demoted
	quotedLate.WriteString("x,\"y\",grp\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&quotedLate, "\"%d\",\"%d.5\",%c\n", i, i%3, 'A'+rune(i%2))
	}
	quotedLate.WriteString("\"1\",\"x\"\"y\",B\n")
	f.Add(quotedLate.String(), "")

	f.Fuzz(func(t *testing.T, input, force string) {
		opts := CSVOptions{GroupColumn: "grp", ForceCategorical: []string{force}}
		// The same input again, read through a reader that fails after
		// its last byte and reports no length: the error must surface
		// where encoding/csv surfaces it.
		failing := func() io.Reader {
			return io.MultiReader(iotest.HalfReader(strings.NewReader(input)), iotest.ErrReader(errAfterInput))
		}
		_, err := FromCSV(failing(), opts)
		_, refErr := referenceFromCSV(failing(), opts)
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("with a read error after the input: error %v, reference error %v", err, refErr)
		}

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
		err = WriteCSV(&buf, d, "grp")
		if d.AttrIndex("grp") >= 0 { // a repeated "grp" header
			if err == nil {
				t.Fatalf("write-back under an attribute's name succeeded:\n%s", buf.String())
			}
			return
		}
		if err != nil {
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
