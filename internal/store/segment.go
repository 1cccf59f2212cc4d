package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"sdadcs/internal/dataset"
)

// Segment file layout (all integers little-endian):
//
//	"SDSEGV1\n"                                    8-byte magic
//	repeat, one per attribute in attr order, then the group column:
//	  kind  u8      0 = categorical codes, 1 = continuous, 2 = group codes
//	  plen  u64     payload length in bytes
//	  payload       u32 per code (kinds 0,2) / float64 bits (kind 1)
//	  crc   u32     CRC-32C over kind, plen and payload
//	footer:
//	  flen  u64     footer JSON length
//	  json          segMeta (schema, domains, group names, parse options)
//	  crc   u32     CRC-32C over the JSON
//	trailer:
//	  foff  u64     offset of the footer's flen field
//	  "SDFTRV1\n"                                  8-byte magic
//
// The footer is decoded first (via the trailer) so the schema is known
// before the segments are walked; every segment's CRC is verified before
// its payload is trusted. The format preserves domain codes and
// first-appearance domain order exactly, so EncodeSegments→DecodeSegments
// round-trips a dataset bit-identically to the original FromCSV parse.

const (
	segMagic     = "SDSEGV1\n"
	trailerMagic = "SDFTRV1\n"
	segVersion   = 1

	kindCategorical = 0
	kindContinuous  = 1
	kindGroup       = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel wrapped by every decode failure; errors.Is
// distinguishes "data on disk is bad" from I/O errors.
var ErrCorrupt = errors.New("store: corrupt segment data")

// CorruptError reports where and why a segment file failed to decode.
type CorruptError struct {
	// ID is the dataset the data belonged to ("" when unknown).
	ID string
	// Reason states what check failed.
	Reason string
}

// Error renders the failure.
func (e *CorruptError) Error() string {
	if e.ID == "" {
		return fmt.Sprintf("store: corrupt segment data: %s", e.Reason)
	}
	return fmt.Sprintf("store: corrupt segment data for %s: %s", e.ID, e.Reason)
}

// Unwrap ties CorruptError to the ErrCorrupt sentinel.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func corrupt(id, format string, args ...any) error {
	return &CorruptError{ID: id, Reason: fmt.Sprintf(format, args...)}
}

// Meta is the registry-facing record of one stored dataset: everything
// the serving layer needs to list and re-address it without touching the
// segment payloads.
type Meta struct {
	// ID is the content-hash address the registry assigned.
	ID string `json:"id"`
	// Name is the display name.
	Name string `json:"name"`
	// GroupColumn and ForceCategorical are the parse options the CSV was
	// registered with; together with the CSV bytes they determine ID.
	GroupColumn      string   `json:"group_column"`
	ForceCategorical []string `json:"force_categorical,omitempty"`
	// Rows is the dataset's row count.
	Rows int `json:"rows"`
	// Attrs counts attributes.
	Attrs int `json:"attrs"`
	// Groups is the group name table in code order.
	Groups []string `json:"groups"`
	// RegisteredAt is the first registration time.
	RegisteredAt time.Time `json:"registered_at"`
}

// segAttr is one attribute's schema entry in the footer.
type segAttr struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "categorical" | "continuous"
}

// segMeta is the footer payload.
type segMeta struct {
	Version int       `json:"version"`
	Dataset string    `json:"dataset"` // dataset.Name(), preserved exactly
	Meta    Meta      `json:"meta"`
	Attrs   []segAttr `json:"attrs"`
	// Domains holds one value table per categorical attribute, in attr
	// order, preserving first-appearance code order exactly.
	Domains [][]string `json:"domains"`
}

// metaFor derives the schema-dependent Meta fields from a dataset,
// keeping the caller-supplied identity fields.
func metaFor(d *dataset.Dataset, m Meta) Meta {
	m.Rows = d.Rows()
	m.Attrs = d.NumAttrs()
	m.Groups = append([]string(nil), d.GroupNames()...)
	return m
}

// EncodeSegments serializes a dataset into the segment file format.
func EncodeSegments(d *dataset.Dataset, m Meta) []byte {
	m = metaFor(d, m)
	sm := segMeta{Version: segVersion, Dataset: d.Name(), Meta: m}
	var buf []byte
	buf = append(buf, segMagic...)

	appendSeg := func(kind byte, payload []byte) {
		var hdr [9]byte
		hdr[0] = kind
		binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
		crc := crc32.Update(0, castagnoli, hdr[:])
		crc = crc32.Update(crc, castagnoli, payload)
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc)
	}
	codesPayload := func(codes []int) []byte {
		p := make([]byte, 4*len(codes))
		for i, c := range codes {
			binary.LittleEndian.PutUint32(p[4*i:], uint32(c))
		}
		return p
	}

	for i := 0; i < d.NumAttrs(); i++ {
		a := d.Attr(i)
		sm.Attrs = append(sm.Attrs, segAttr{Name: a.Name, Kind: a.Kind.String()})
		if a.Kind == dataset.Categorical {
			sm.Domains = append(sm.Domains, d.Domain(i))
			appendSeg(kindCategorical, codesPayload(d.CatCodes(i)))
			continue
		}
		col := d.ContColumn(i)
		p := make([]byte, 8*len(col))
		for r, v := range col {
			binary.LittleEndian.PutUint64(p[8*r:], math.Float64bits(v))
		}
		appendSeg(kindContinuous, p)
	}
	appendSeg(kindGroup, codesPayload(d.GroupCodes()))

	footerOff := uint64(len(buf))
	fj, err := json.Marshal(sm)
	if err != nil {
		// segMeta is strings and ints only; Marshal cannot fail on it.
		panic(fmt.Sprintf("store: encoding footer: %v", err))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(fj)))
	buf = append(buf, fj...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(fj, castagnoli))
	buf = binary.LittleEndian.AppendUint64(buf, footerOff)
	buf = append(buf, trailerMagic...)
	return buf
}

// DecodeSegments parses a segment file back into a dataset and its meta.
// Every integrity violation — bad magic, out-of-range offsets, CRC
// mismatches, schema/payload disagreements — returns a *CorruptError
// (errors.Is ErrCorrupt); the function never panics on malformed input,
// which FuzzSegmentReader enforces.
func DecodeSegments(data []byte) (*dataset.Dataset, Meta, error) {
	fail := func(format string, args ...any) (*dataset.Dataset, Meta, error) {
		return nil, Meta{}, corrupt("", format, args...)
	}
	if len(data) < len(segMagic)+len(trailerMagic)+8 {
		return fail("file too short (%d bytes)", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return fail("bad leading magic")
	}
	if string(data[len(data)-len(trailerMagic):]) != trailerMagic {
		return fail("bad trailer magic")
	}
	footerOff := binary.LittleEndian.Uint64(data[len(data)-len(trailerMagic)-8:])
	segEnd := int64(footerOff)
	if segEnd < int64(len(segMagic)) || segEnd > int64(len(data)-len(trailerMagic)-8) {
		return fail("footer offset %d out of range", footerOff)
	}
	cur := segEnd
	if int64(len(data))-cur < 8+4 {
		return fail("footer truncated")
	}
	flen := binary.LittleEndian.Uint64(data[cur:])
	cur += 8
	if flen > uint64(int64(len(data))-cur-4) {
		return fail("footer length %d out of range", flen)
	}
	fj := data[cur : cur+int64(flen)]
	cur += int64(flen)
	if crc32.Checksum(fj, castagnoli) != binary.LittleEndian.Uint32(data[cur:]) {
		return fail("footer CRC mismatch")
	}
	var sm segMeta
	if err := json.Unmarshal(fj, &sm); err != nil {
		return fail("footer JSON: %v", err)
	}
	if sm.Version != segVersion {
		return fail("unsupported segment version %d", sm.Version)
	}
	id := sm.Meta.ID
	rows := sm.Meta.Rows
	if rows <= 0 || rows > len(data) {
		// A row needs at least one payload byte somewhere; anything past
		// the file size is an allocation bomb, not a dataset.
		return nil, Meta{}, corrupt(id, "implausible row count %d", rows)
	}
	if len(sm.Attrs) != sm.Meta.Attrs {
		return nil, Meta{}, corrupt(id, "schema lists %d attrs, meta says %d", len(sm.Attrs), sm.Meta.Attrs)
	}

	// Walk the segments against the schema.
	pos := int64(len(segMagic))
	nextSeg := func() (byte, []byte, error) {
		if segEnd-pos < 9+4 {
			return 0, nil, corrupt(id, "segment header truncated at offset %d", pos)
		}
		hdr := data[pos : pos+9]
		kind := hdr[0]
		plen := binary.LittleEndian.Uint64(hdr[1:])
		if plen > uint64(segEnd-pos-9-4) {
			return 0, nil, corrupt(id, "segment payload length %d out of range at offset %d", plen, pos)
		}
		payload := data[pos+9 : pos+9+int64(plen)]
		crc := crc32.Update(0, castagnoli, hdr)
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != binary.LittleEndian.Uint32(data[pos+9+int64(plen):]) {
			return 0, nil, corrupt(id, "segment CRC mismatch at offset %d", pos)
		}
		pos += 9 + int64(plen) + 4
		return kind, payload, nil
	}
	decodeCodes := func(payload []byte) ([]int, error) {
		if len(payload) != 4*rows {
			return nil, corrupt(id, "code payload is %d bytes, want %d", len(payload), 4*rows)
		}
		codes := make([]int, rows)
		for i := range codes {
			codes[i] = int(binary.LittleEndian.Uint32(payload[4*i:]))
		}
		return codes, nil
	}

	b := dataset.NewBuilder(sm.Dataset)
	catIdx := 0
	for i, a := range sm.Attrs {
		kind, payload, err := nextSeg()
		if err != nil {
			return nil, Meta{}, err
		}
		switch a.Kind {
		case dataset.Categorical.String():
			if kind != kindCategorical {
				return nil, Meta{}, corrupt(id, "attr %d: segment kind %d, schema says categorical", i, kind)
			}
			if catIdx >= len(sm.Domains) {
				return nil, Meta{}, corrupt(id, "attr %d: no domain table", i)
			}
			codes, err := decodeCodes(payload)
			if err != nil {
				return nil, Meta{}, err
			}
			b.AddCategoricalCoded(a.Name, codes, sm.Domains[catIdx])
			catIdx++
		case dataset.Continuous.String():
			if kind != kindContinuous {
				return nil, Meta{}, corrupt(id, "attr %d: segment kind %d, schema says continuous", i, kind)
			}
			if len(payload) != 8*rows {
				return nil, Meta{}, corrupt(id, "attr %d: float payload is %d bytes, want %d", i, len(payload), 8*rows)
			}
			col := make([]float64, rows)
			for r := range col {
				col[r] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*r:]))
			}
			b.AddContinuous(a.Name, col)
		default:
			return nil, Meta{}, corrupt(id, "attr %d: unknown schema kind %q", i, a.Kind)
		}
	}
	kind, payload, err := nextSeg()
	if err != nil {
		return nil, Meta{}, err
	}
	if kind != kindGroup {
		return nil, Meta{}, corrupt(id, "trailing segment kind %d, want group codes", kind)
	}
	if pos != segEnd {
		return nil, Meta{}, corrupt(id, "%d trailing bytes after group segment", segEnd-pos)
	}
	groups, err := decodeCodes(payload)
	if err != nil {
		return nil, Meta{}, err
	}
	b.SetGroupsCoded(groups, sm.Meta.Groups)
	d, err := b.Build()
	if err != nil {
		return nil, Meta{}, corrupt(id, "rebuilding dataset: %v", err)
	}
	return d, sm.Meta, nil
}
