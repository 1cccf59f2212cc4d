package dataset

// referenceFromCSV is the two-pass CSV loader, kept verbatim apart from
// its names and its encoding as the differential reference FuzzFromCSV
// holds FromCSV to: it reads the whole file as [][]string, transposes it
// into columns, and tries every non-forced column as floats before falling
// back to categorical. It encodes categorical columns with a map of its
// own, not the loader's interner, so the fuzzer checks that too.

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// referenceFromCSV reads a headered CSV into a Dataset. Columns whose every value
// parses as a float become continuous attributes; everything else is
// categorical. The group column is extracted and does not appear among the
// attributes.
func referenceFromCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	if opts.GroupColumn == "" {
		return nil, fmt.Errorf("dataset: CSVOptions.GroupColumn is required")
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	groupCol := -1
	for i, h := range header {
		if h == opts.GroupColumn {
			groupCol = i
			break
		}
	}
	if groupCol == -1 {
		return nil, fmt.Errorf("dataset: group column %q not found in header", opts.GroupColumn)
	}
	forced := make(map[string]bool, len(opts.ForceCategorical))
	for _, c := range opts.ForceCategorical {
		forced[c] = true
	}

	raw := make([][]string, len(header))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: row has %d fields, want %d", len(rec), len(header))
		}
		for i, v := range rec {
			raw[i] = append(raw[i], v)
		}
	}
	if len(raw[0]) == 0 {
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
		if !forced[h] {
			if nums, ok := referenceParseAllFloats(raw[i]); ok {
				b.AddContinuous(h, nums)
				continue
			}
		}
		codes, domain := referenceEncode(raw[i])
		b.AddCategoricalCoded(h, codes, domain)
	}
	b.SetGroupsCoded(referenceEncode(raw[groupCol]))
	return b.Build()
}

// referenceEncode maps strings to dense codes in first-appearance order.
func referenceEncode(values []string) ([]int, []string) {
	codes := make([]int, len(values))
	index := make(map[string]int)
	var domain []string
	for i, v := range values {
		c, ok := index[v]
		if !ok {
			c = len(domain)
			index[v] = c
			domain = append(domain, v)
		}
		codes[i] = c
	}
	return codes, domain
}

// referenceParseAllFloats parses every string as float64, reporting ok=false on the
// first failure. The UCI missing-value markers — empty string, "?", "NA" —
// and a literal "NaN" become NaN (missing); a column must still contain at
// least one finite value to count as continuous. ±Inf fails: such columns
// fall back to categorical where the values stay visible.
func referenceParseAllFloats(vals []string) ([]float64, bool) {
	out := make([]float64, len(vals))
	finite := false
	for i, s := range vals {
		switch s {
		case "", "?", "NA", "NaN", "nan":
			out[i] = math.NaN()
			continue
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsInf(f, 0) {
			return nil, false
		}
		if math.IsNaN(f) {
			out[i] = math.NaN()
			continue
		}
		out[i] = f
		finite = true
	}
	return out, finite
}
