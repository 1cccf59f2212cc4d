package dataset

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
)

// Builder assembles a Dataset column by column. All columns (including the
// group labels) must have the same length. Build validates and returns an
// immutable Dataset.
type Builder struct {
	name string
	d    Dataset
	err  error
	rows int // -1 until the first column fixes it
}

// NewBuilder returns a builder for a dataset with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, rows: -1}
}

func (b *Builder) checkLen(n int, what string) bool {
	if b.err != nil {
		return false
	}
	if b.rows == -1 {
		b.rows = n
	} else if b.rows != n {
		b.err = fmt.Errorf("dataset: %s has %d rows, want %d", what, n, b.rows)
		return false
	}
	return true
}

// AddContinuous appends a continuous attribute with the given values.
// NaN marks a missing reading (the UCI convention after parsing): missing
// rows match no interval, so they are excluded from every bin of this
// attribute, and quantiles skip them. ±Inf is rejected — an infinite
// measurement is a data error, not a missing one.
func (b *Builder) AddContinuous(name string, values []float64) *Builder {
	if !b.checkLen(len(values), name) {
		return b
	}
	for i, v := range values {
		if math.IsInf(v, 0) {
			b.err = fmt.Errorf("dataset: %s row %d is infinite", name, i)
			return b
		}
	}
	b.d.attrs = append(b.d.attrs, Attr{Name: name, Kind: Continuous, col: len(b.d.contCols)})
	b.d.contCols = append(b.d.contCols, values)
	return b
}

// AddCategorical appends a categorical attribute with the given string
// values; the domain is built from the distinct values in first-appearance
// order.
func (b *Builder) AddCategorical(name string, values []string) *Builder {
	if !b.checkLen(len(values), name) {
		return b
	}
	codes, domain := encode(values)
	b.d.attrs = append(b.d.attrs, Attr{Name: name, Kind: Categorical, col: len(b.d.catCols)})
	b.d.catCols = append(b.d.catCols, codes)
	b.d.catDomains = append(b.d.catDomains, domain)
	return b
}

// AddCategoricalCoded appends a categorical attribute from pre-encoded
// domain codes and their value table — the zero-re-encoding path used when
// the codes already exist (a stored dataset's segments, a stream monitor's
// scratch buffers). The codes and domain slices are retained; codes must
// index into domain (validated by Build). Unlike AddCategorical, the
// domain's order is preserved exactly as given, so round-trips are
// bit-identical even when it is not first-appearance order.
func (b *Builder) AddCategoricalCoded(name string, codes []int, domain []string) *Builder {
	if !b.checkLen(len(codes), name) {
		return b
	}
	if len(domain) == 0 {
		b.err = fmt.Errorf("dataset: %s has an empty domain", name)
		return b
	}
	b.d.attrs = append(b.d.attrs, Attr{Name: name, Kind: Categorical, col: len(b.d.catCols)})
	b.d.catCols = append(b.d.catCols, codes)
	b.d.catDomains = append(b.d.catDomains, domain)
	return b
}

// SetGroupsCoded sets the group column from pre-encoded codes and the
// group name table, mirroring AddCategoricalCoded. Both slices are
// retained; codes must index into names (validated by Build).
func (b *Builder) SetGroupsCoded(codes []int, names []string) *Builder {
	if !b.checkLen(len(codes), "groups") {
		return b
	}
	b.d.groups, b.d.groupNames = codes, names
	return b
}

// SetGroups sets the group label of every row.
func (b *Builder) SetGroups(labels []string) *Builder {
	if !b.checkLen(len(labels), "groups") {
		return b
	}
	b.d.groups, b.d.groupNames = encode(labels)
	return b
}

// Build validates and returns the dataset.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.rows <= 0 {
		return nil, errors.New("dataset: builder has no columns")
	}
	if b.d.groups == nil {
		return nil, errors.New("dataset: SetGroups not called")
	}
	if len(b.d.attrs) == 0 {
		return nil, errors.New("dataset: no attributes")
	}
	b.d.name = b.name
	b.d.rows = b.rows
	b.d.byName = make(map[string]int, len(b.d.attrs))
	for i, a := range b.d.attrs {
		if _, dup := b.d.byName[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		b.d.byName[a.Name] = i
	}
	if err := b.d.Validate(); err != nil {
		return nil, err
	}
	return &b.d, nil
}

// MustBuild is Build for tests and generators with static inputs; it panics
// on error.
func (b *Builder) MustBuild() *Dataset {
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	return d
}

// encode maps strings to dense codes in first-appearance order.
func encode(values []string) ([]int, []string) {
	codes := make([]int, len(values))
	var dict interner
	for i, v := range values {
		codes[i] = dict.code([]byte(v))
	}
	return codes, dict.domain
}

// interner gives each distinct value a dense code in first-appearance
// order; domain[code] is the value. It is the package's one value→code
// map, for the CSV loader's columns and for encode. The table is open
// addressing with linear probing on a seeded hash of the value's bytes,
// kept at most half full, so a lookup of a known value allocates nothing
// and a new value is copied into its string once.
type interner struct {
	seed   maphash.Seed
	slots  []int32 // code+1 of the value hashed there, 0 if empty; len a power of two
	domain []string
}

// code returns v's code, giving a new value the next one.
func (in *interner) code(v []byte) int {
	if in.slots == nil {
		in.seed = maphash.MakeSeed()
		in.grow()
	}
	mask := uint64(len(in.slots) - 1)
	for i := maphash.Bytes(in.seed, v) & mask; ; i = (i + 1) & mask {
		c := in.slots[i]
		if c == 0 {
			in.domain = append(in.domain, string(v))
			in.slots[i] = int32(len(in.domain))
			if 2*len(in.domain) > len(in.slots) {
				in.grow()
			}
			return len(in.domain) - 1
		}
		if in.domain[c-1] == string(v) {
			return int(c - 1)
		}
	}
}

// grow doubles the table (64 slots at first) and re-slots every value.
func (in *interner) grow() {
	in.slots = make([]int32, max(64, 2*len(in.slots)))
	mask := uint64(len(in.slots) - 1)
	for c, v := range in.domain {
		i := maphash.String(in.seed, v) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = int32(c + 1)
	}
}
