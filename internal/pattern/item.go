package pattern

import (
	"fmt"
	"strconv"

	"sdadcs/internal/dataset"
)

// Item is one condition of a contrast pattern: either a categorical
// attribute taking a specific value, or a continuous attribute falling in a
// half-open range.
type Item struct {
	Attr  int          // attribute index in the dataset
	Kind  dataset.Kind // Categorical or Continuous
	Code  int          // domain code, for categorical items
	Range Interval     // value range, for continuous items
}

// CatItem builds a categorical item.
func CatItem(attr, code int) Item {
	return Item{Attr: attr, Kind: dataset.Categorical, Code: code}
}

// RangeItem builds a continuous item over (lo, hi].
func RangeItem(attr int, lo, hi float64) Item {
	return Item{Attr: attr, Kind: dataset.Continuous, Range: Interval{Lo: lo, Hi: hi}}
}

// Matches reports whether the item holds at the given dataset row.
func (it Item) Matches(d *dataset.Dataset, row int) bool {
	if it.Kind == dataset.Categorical {
		return d.CatCode(it.Attr, row) == it.Code
	}
	return it.Range.Contains(d.Cont(it.Attr, row))
}

// Equal reports exact equality.
func (it Item) Equal(o Item) bool {
	if it.Attr != o.Attr || it.Kind != o.Kind {
		return false
	}
	if it.Kind == dataset.Categorical {
		return it.Code == o.Code
	}
	return it.Range.Equal(o.Range)
}

// Subsumes reports whether this item's condition is implied by o's: same
// attribute, and o's condition is at least as specific. For categorical
// items this is equality; for continuous items it means o's range lies
// within this item's range.
func (it Item) Subsumes(o Item) bool {
	if it.Attr != o.Attr || it.Kind != o.Kind {
		return false
	}
	if it.Kind == dataset.Categorical {
		return it.Code == o.Code
	}
	return it.Range.Lo <= o.Range.Lo && o.Range.Hi <= it.Range.Hi
}

// Format renders the item against a dataset's attribute and domain names,
// e.g. `occupation = Prof-specialty` or `18 < age <= 26`.
func (it Item) Format(d *dataset.Dataset) string {
	name := d.Attr(it.Attr).Name
	if it.Kind == dataset.Categorical {
		return fmt.Sprintf("%s = %s", name, d.Domain(it.Attr)[it.Code])
	}
	return fmt.Sprintf("%s < %s <= %s",
		formatBound(it.Range.Lo), name, formatBound(it.Range.Hi))
}

// Key renders a canonical, collision-free encoding of the item; an
// itemset's key joins its items' keys with "|" in attribute order.
func (it Item) Key() string {
	if it.Kind == dataset.Categorical {
		return strconv.Itoa(it.Attr) + "=" + strconv.Itoa(it.Code)
	}
	return strconv.Itoa(it.Attr) + "@" + keyBound(it.Range.Lo) + "," + keyBound(it.Range.Hi)
}
