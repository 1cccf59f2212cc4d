package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// WAL record framing (all integers little-endian):
//
//	magic u32     0x53574C31 ("SWL1")
//	type  u8      recRegister | recDelete | recAppend
//	plen  u32     payload length
//	payload
//	crc   u32     CRC-32C over type, plen and payload
//
// A record is durable once its bytes and the fsync that follows them have
// completed. Replay stops at the first record that fails any check — a
// short header, an out-of-range length, a CRC mismatch — and truncates the
// file there: that is the torn tail of the append in flight when the
// process died, and everything before it is intact by construction
// (records are written with a single Write call and fsynced in order).
const (
	walMagic = 0x53574C31

	recRegister = 1 // payload: Meta JSON
	recDelete   = 2 // payload: raw dataset ID
	recAppend   = 3 // payload: dataset ID + binary RowBatch
)

// RowBatch is a set of rows appended to a stored dataset: one slice per
// continuous column, one per categorical column (string values), and the
// group label per row, all the same length. The batch payload is encoded
// in binary — float64 bit patterns, length-prefixed strings — because
// appended readings can be NaN (missing) and JSON cannot carry NaN.
type RowBatch struct {
	Cont   [][]float64
	Cat    [][]string
	Groups []string
}

// Rows returns the batch's row count (the length of the group column).
func (rb *RowBatch) Rows() int { return len(rb.Groups) }

// validate checks the batch is rectangular and non-empty.
func (rb *RowBatch) validate() error {
	n := len(rb.Groups)
	if n == 0 {
		return errors.New("store: empty row batch")
	}
	for i, col := range rb.Cont {
		if len(col) != n {
			return fmt.Errorf("store: cont column %d has %d rows, want %d", i, len(col), n)
		}
	}
	for i, col := range rb.Cat {
		if len(col) != n {
			return fmt.Errorf("store: cat column %d has %d rows, want %d", i, len(col), n)
		}
	}
	return nil
}

// encodeBatch serializes id + batch for a recAppend payload.
func encodeBatch(id string, rb *RowBatch) []byte {
	var buf []byte
	appendStr := func(s string) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	appendStr(id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rb.Rows()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rb.Cont)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rb.Cat)))
	for _, col := range rb.Cont {
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for _, col := range rb.Cat {
		for _, v := range col {
			appendStr(v)
		}
	}
	for _, g := range rb.Groups {
		appendStr(g)
	}
	return buf
}

// decodeBatch parses a recAppend payload back into (id, batch).
func decodeBatch(data []byte) (string, *RowBatch, error) {
	cur := 0
	fail := func(what string) (string, *RowBatch, error) {
		return "", nil, corrupt("", "append record: %s", what)
	}
	readU32 := func() (int, bool) {
		if len(data)-cur < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(data[cur:])
		cur += 4
		return int(v), true
	}
	readStr := func() (string, bool) {
		n, ok := readU32()
		if !ok || n > len(data)-cur {
			return "", false
		}
		s := string(data[cur : cur+n])
		cur += n
		return s, true
	}
	id, ok := readStr()
	if !ok {
		return fail("truncated id")
	}
	rows, ok1 := readU32()
	contN, ok2 := readU32()
	catN, ok3 := readU32()
	if !ok1 || !ok2 || !ok3 {
		return fail("truncated header")
	}
	// Every continuous cell costs 8 bytes and every other cell at least 4,
	// so plausible dimensions are bounded by the payload size.
	if rows <= 0 || contN < 0 || catN < 0 ||
		rows > len(data) || (contN+catN+1) > len(data)/4+1 {
		return fail("implausible dimensions")
	}
	rb := &RowBatch{Cont: make([][]float64, contN), Cat: make([][]string, catN)}
	for c := range rb.Cont {
		if len(data)-cur < 8*rows {
			return fail("truncated cont column")
		}
		col := make([]float64, rows)
		for r := range col {
			col[r] = math.Float64frombits(binary.LittleEndian.Uint64(data[cur:]))
			cur += 8
		}
		rb.Cont[c] = col
	}
	for c := range rb.Cat {
		col := make([]string, rows)
		for r := range col {
			v, ok := readStr()
			if !ok {
				return fail("truncated cat column")
			}
			col[r] = v
		}
		rb.Cat[c] = col
	}
	rb.Groups = make([]string, rows)
	for r := range rb.Groups {
		v, ok := readStr()
		if !ok {
			return fail("truncated group column")
		}
		rb.Groups[r] = v
	}
	if cur != len(data) {
		return fail("trailing bytes")
	}
	return id, rb, nil
}

// wal is the append-only log file. All methods are called with the
// store's mutex held.
type wal struct {
	f       *os.File
	path    string
	records int // records since the last reset (checkpoint pressure)
}

// openWAL opens (creating if absent) the log at path for appending.
func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, path: path}, nil
}

// append frames, writes, and fsyncs one record.
func (w *wal) append(typ byte, payload []byte) error {
	rec := make([]byte, 0, 4+1+4+len(payload)+4)
	rec = binary.LittleEndian.AppendUint32(rec, walMagic)
	rec = append(rec, typ)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	crc := crc32.Update(0, castagnoli, rec[4:])
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("store: wal write: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	w.records++
	return nil
}

// reset truncates the log after a checkpoint has captured its contents.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.records = 0
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// walRecord is one replayed record.
type walRecord struct {
	typ     byte
	payload []byte
}

// replayWAL reads every intact record from path and reports whether a torn
// tail was truncated. A missing file is an empty log. The returned records
// reference freshly-read memory and are safe to retain.
func replayWAL(path string) (recs []walRecord, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	recs, good := parseWAL(data)
	if good < len(data) {
		// Torn tail: the record being appended when the process died.
		// Truncate so the next append starts at a clean boundary.
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, false, fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
		truncated = true
	}
	return recs, truncated, nil
}

// parseWAL splits a log image into its intact records, stopping at the
// first record that fails a framing or CRC check. good is the offset just
// past the last intact record; data[good:] is the torn tail. Payloads
// alias data. It is pure — no I/O — so FuzzWALReplay drives it directly.
func parseWAL(data []byte) (recs []walRecord, good int) {
	pos := 0
	for {
		if len(data)-pos < 4+1+4 {
			break
		}
		if binary.LittleEndian.Uint32(data[pos:]) != walMagic {
			break
		}
		plen := int(binary.LittleEndian.Uint32(data[pos+5:]))
		if plen < 0 || plen > len(data)-pos-4-1-4-4 {
			break
		}
		body := data[pos+4 : pos+4+1+4+plen]
		crc := binary.LittleEndian.Uint32(data[pos+4+1+4+plen:])
		if crc32.Checksum(body, castagnoli) != crc {
			break
		}
		recs = append(recs, walRecord{typ: body[0], payload: body[5:]})
		pos += 4 + 1 + 4 + plen + 4
		good = pos
	}
	return recs, good
}
