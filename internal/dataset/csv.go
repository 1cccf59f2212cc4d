package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// CSVOptions controls FromCSV parsing.
type CSVOptions struct {
	// GroupColumn is the header name of the group attribute (required).
	GroupColumn string
	// ForceCategorical lists columns to treat as categorical even if every
	// value parses as a number (e.g. encoded equipment IDs).
	ForceCategorical []string
	// Name is the dataset name; defaults to "csv".
	Name string
}

// FromCSV reads a headered CSV into a Dataset. Columns whose every value
// parses as a float become continuous attributes; everything else is
// categorical. The group column is extracted and does not appear among the
// attributes.
//
// Loading is one pass: each record's fields go straight to their column's
// accumulator, so the file is never held as strings. The group column and
// forced columns are dictionary-encoded as rows arrive; any other column
// stays numeric until its first non-numeric value, which encodes the field
// strings kept so far and continues encoding.
func FromCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	if opts.GroupColumn == "" {
		return nil, fmt.Errorf("dataset: CSVOptions.GroupColumn is required")
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	header = slices.Clone(header) // the reader reuses the record slice
	groupCol := slices.Index(header, opts.GroupColumn)
	if groupCol == -1 {
		return nil, fmt.Errorf("dataset: group column %q not found in header", opts.GroupColumn)
	}
	cols := make([]csvColumn, len(header))
	for i, h := range header {
		cols[i].numeric = i != groupCol && !slices.Contains(opts.ForceCategorical, h)
	}

	rows := 0
	for {
		// The reader enforces the header's field count on every record,
		// so a ragged row is a read error.
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		for i, v := range rec {
			cols[i].add(v)
		}
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("dataset: CSV has no data rows")
	}

	name := opts.Name
	if name == "" {
		name = "csv"
	}
	b := NewBuilder(name)
	for i, h := range header {
		if i == groupCol {
			continue
		}
		c := &cols[i]
		if c.numeric && c.finite {
			b.AddContinuous(h, c.nums)
			continue
		}
		if c.numeric { // no finite value: categorical after all
			c.demote()
		}
		b.AddCategoricalCoded(h, c.codes, c.domain)
	}
	b.SetGroupsCoded(cols[groupCol].codes, cols[groupCol].domain)
	return b.Build()
}

// csvColumn accumulates one CSV column as its rows arrive. While numeric,
// it keeps every value parsed and its field string, in case a later value
// demotes it; once categorical, it keeps codes into a first-appearance
// domain.
type csvColumn struct {
	numeric bool
	finite  bool // numeric and some value is finite
	nums    []float64
	strs    []string

	codes  []int
	index  map[string]int
	domain []string
}

func (c *csvColumn) add(s string) {
	if c.numeric {
		if f, ok := parseCell(s); ok {
			c.nums = append(c.nums, f)
			c.strs = append(c.strs, s)
			c.finite = c.finite || f == f
			return
		}
		c.demote()
	}
	c.encode(s)
}

// demote turns a numeric column categorical, encoding its kept strings in
// row order.
func (c *csvColumn) demote() {
	c.numeric = false
	for _, s := range c.strs {
		c.encode(s)
	}
	c.nums, c.strs = nil, nil
}

// encode appends the code of s, giving a new value the next code. Domain
// strings are cloned so the dataset does not pin the reader's records.
func (c *csvColumn) encode(s string) {
	code, ok := c.index[s]
	if !ok {
		if c.index == nil {
			c.index = make(map[string]int)
		}
		s = strings.Clone(s)
		code = len(c.domain)
		c.index[s] = code
		c.domain = append(c.domain, s)
	}
	c.codes = append(c.codes, code)
}

// parseCell parses one field of a numeric column. The UCI missing-value
// markers — empty string, "?", "NA" — and a literal "NaN" or any NaN
// ParseFloat reads become NaN (missing). ±Inf or a parse error reports
// ok=false: the column falls back to categorical, where the values stay
// visible.
func parseCell(s string) (f float64, ok bool) {
	switch s {
	case "", "?", "NA", "NaN", "nan":
		return math.NaN(), true
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsInf(f, 0) {
		return 0, false
	}
	if math.IsNaN(f) {
		return math.NaN(), true
	}
	return f, true
}

// WriteCSV writes the dataset (attributes plus a trailing group column) as
// headered CSV.
func WriteCSV(w io.Writer, d *Dataset, groupColumn string) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, d.NumAttrs()+1)
	for i := 0; i < d.NumAttrs(); i++ {
		header = append(header, d.Attr(i).Name)
	}
	header = append(header, groupColumn)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for r := 0; r < d.Rows(); r++ {
		for i := 0; i < d.NumAttrs(); i++ {
			if d.Attr(i).Kind == Continuous {
				rec[i] = strconv.FormatFloat(d.Cont(i, r), 'g', -1, 64)
			} else {
				rec[i] = d.CatValue(i, r)
			}
		}
		rec[len(rec)-1] = d.GroupName(d.Group(r))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
