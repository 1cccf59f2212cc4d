package dataset

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind distinguishes categorical from continuous attributes.
type Kind int

const (
	// Categorical attributes take one of a finite set of string values.
	Categorical Kind = iota
	// Continuous attributes take real values.
	Continuous
)

// String returns "categorical" or "continuous".
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attr describes one attribute of a dataset.
type Attr struct {
	Name string
	Kind Kind
	col  int // index into catCols or contCols
}

// Dataset is an immutable columnar table with a group attribute. Build one
// with a Builder or FromCSV; the zero value is not usable.
type Dataset struct {
	name       string
	attrs      []Attr
	byName     map[string]int
	catCols    [][]int
	catDomains [][]string
	contCols   [][]float64
	groups     []int
	groupNames []string
	rows       int
	// index is the acceleration-structure cache slot (see Index); it rides
	// on the dataset so the counting engine's bitmap index is built once
	// per dataset and reused across Mine calls and serve jobs.
	index Index
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.name }

// Rows returns the number of rows.
func (d *Dataset) Rows() int { return d.rows }

// NumAttrs returns the number of attributes (excluding the group attribute).
func (d *Dataset) NumAttrs() int { return len(d.attrs) }

// Attr returns the metadata for attribute i.
func (d *Dataset) Attr(i int) Attr { return d.attrs[i] }

// AttrIndex returns the index of the attribute with the given name, or -1.
func (d *Dataset) AttrIndex(name string) int {
	if i, ok := d.byName[name]; ok {
		return i
	}
	return -1
}

// ContinuousAttrs returns the indices of all continuous attributes.
func (d *Dataset) ContinuousAttrs() []int {
	var out []int
	for i, a := range d.attrs {
		if a.Kind == Continuous {
			out = append(out, i)
		}
	}
	return out
}

// CategoricalAttrs returns the indices of all categorical attributes.
func (d *Dataset) CategoricalAttrs() []int {
	var out []int
	for i, a := range d.attrs {
		if a.Kind == Categorical {
			out = append(out, i)
		}
	}
	return out
}

// AttrsKey renders a miner's attribute restriction for its canonical
// config key: the indices sorted and comma-joined, or "all" for nil (no
// restriction).
func AttrsKey(attrs []int) string {
	if attrs == nil {
		return "all"
	}
	sorted := slices.Clone(attrs)
	slices.Sort(sorted)
	parts := make([]string, len(sorted))
	for i, a := range sorted {
		parts[i] = strconv.Itoa(a)
	}
	return strings.Join(parts, ",")
}

// NumGroups returns the number of distinct groups.
func (d *Dataset) NumGroups() int { return len(d.groupNames) }

// GroupName returns the name of group g.
func (d *Dataset) GroupName(g int) string { return d.groupNames[g] }

// GroupIndex returns the index of the named group, or -1.
func (d *Dataset) GroupIndex(name string) int {
	for i, n := range d.groupNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Group returns the group code of a row.
func (d *Dataset) Group(row int) int { return d.groups[row] }

// GroupSizes returns the number of rows in each group.
func (d *Dataset) GroupSizes() []int {
	sizes := make([]int, len(d.groupNames))
	for _, g := range d.groups {
		sizes[g]++
	}
	return sizes
}

// Domain returns the value domain of a categorical attribute.
func (d *Dataset) Domain(attr int) []string {
	a := d.attrs[attr]
	if a.Kind != Categorical {
		panic(fmt.Sprintf("dataset: Domain on continuous attribute %q", a.Name))
	}
	return d.catDomains[a.col]
}

// CatCode returns the domain code of a categorical attribute at a row.
func (d *Dataset) CatCode(attr, row int) int {
	a := d.attrs[attr]
	if a.Kind != Categorical {
		panic(fmt.Sprintf("dataset: CatCode on continuous attribute %q", a.Name))
	}
	return d.catCols[a.col][row]
}

// CatValue returns the string value of a categorical attribute at a row.
func (d *Dataset) CatValue(attr, row int) string {
	a := d.attrs[attr]
	return d.catDomains[a.col][d.catCols[a.col][row]]
}

// CatCodes returns the full code column of a categorical attribute — the
// dense domain codes in row order. The caller must not modify it. Together
// with Domain this is the raw columnar content the persistence layer
// serializes, so a stored dataset round-trips bit-identically (codes and
// first-appearance domain order are preserved exactly, never re-encoded).
func (d *Dataset) CatCodes(attr int) []int {
	a := d.attrs[attr]
	if a.Kind != Categorical {
		panic(fmt.Sprintf("dataset: CatCodes on continuous attribute %q", a.Name))
	}
	return d.catCols[a.col]
}

// GroupCodes returns the full group-code column in row order. The caller
// must not modify it.
func (d *Dataset) GroupCodes() []int { return d.groups }

// GroupNames returns the group name table indexed by group code. The
// caller must not modify it.
func (d *Dataset) GroupNames() []string { return d.groupNames }

// Cont returns the value of a continuous attribute at a row.
func (d *Dataset) Cont(attr, row int) float64 {
	a := d.attrs[attr]
	if a.Kind != Continuous {
		panic(fmt.Sprintf("dataset: Cont on categorical attribute %q", a.Name))
	}
	return d.contCols[a.col][row]
}

// ContColumn returns the full column slice of a continuous attribute. The
// caller must not modify it.
func (d *Dataset) ContColumn(attr int) []float64 {
	a := d.attrs[attr]
	if a.Kind != Continuous {
		panic(fmt.Sprintf("dataset: ContColumn on categorical attribute %q", a.Name))
	}
	return d.contCols[a.col]
}

// All returns a view over every row.
func (d *Dataset) All() View {
	return View{ds: d, all: true}
}

// Restrict returns a view over the given row indices. The slice is retained;
// the caller must not modify it afterwards.
func (d *Dataset) Restrict(rows []int) View {
	return View{ds: d, rows: rows}
}

// Materialize copies a view's rows into a standalone dataset that keeps
// the source's attribute order, categorical domains and group coding —
// itemsets and group indices remain valid across the copy. This is how
// holdout pipelines mine on a training subset while validating patterns
// against the original dataset's views.
func Materialize(v View) *Dataset {
	src := v.Dataset()
	n := v.Len()
	out := &Dataset{
		name:       src.name + "-subset",
		attrs:      append([]Attr(nil), src.attrs...),
		byName:     src.byName,
		catDomains: src.catDomains,
		groupNames: src.groupNames,
		rows:       n,
	}
	out.catCols = make([][]int, len(src.catCols))
	for c := range src.catCols {
		col := make([]int, n)
		for i := 0; i < n; i++ {
			col[i] = src.catCols[c][v.Row(i)]
		}
		out.catCols[c] = col
	}
	out.contCols = make([][]float64, len(src.contCols))
	for c := range src.contCols {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = src.contCols[c][v.Row(i)]
		}
		out.contCols[c] = col
	}
	out.groups = make([]int, n)
	for i := 0; i < n; i++ {
		out.groups[i] = src.groups[v.Row(i)]
	}
	return out
}

// Validate checks internal consistency. Builders produce valid datasets;
// this is exported for tests and for data loaded from external sources.
func (d *Dataset) Validate() error {
	if d.rows == 0 {
		return errors.New("dataset: no rows")
	}
	if len(d.groupNames) < 2 {
		return errors.New("dataset: need at least two groups")
	}
	if len(d.groups) != d.rows {
		return errors.New("dataset: group column length mismatch")
	}
	for _, g := range d.groups {
		if g < 0 || g >= len(d.groupNames) {
			return errors.New("dataset: group code out of range")
		}
	}
	for i, a := range d.attrs {
		switch a.Kind {
		case Categorical:
			if len(d.catCols[a.col]) != d.rows {
				return fmt.Errorf("dataset: attr %d column length mismatch", i)
			}
			dom := len(d.catDomains[a.col])
			for _, c := range d.catCols[a.col] {
				if c < 0 || c >= dom {
					return fmt.Errorf("dataset: attr %d code out of domain", i)
				}
			}
		case Continuous:
			if len(d.contCols[a.col]) != d.rows {
				return fmt.Errorf("dataset: attr %d column length mismatch", i)
			}
		}
	}
	return nil
}
