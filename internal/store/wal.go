package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// WAL record framing (all integers little-endian):
//
//	magic u32     0x53574C31 ("SWL1")
//	type  u8      recRegister | recDelete
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

	recRegister = 1 // payload: Meta JSON (Put)
	recDelete   = 2 // payload: raw dataset ID (quarantine)
)

// ErrStoreFailed is returned by every append after one whose failure could
// not be rolled back: the log may then hold a torn record, and a record
// appended after it would be dropped by replay, so the log takes no more.
var ErrStoreFailed = errors.New("store: wal failed")

// walFile is the part of *os.File the log uses; tests substitute a fake
// that injects faults.
type walFile interface {
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// wal is the append-only log file. All methods are called with the
// store's mutex held.
type wal struct {
	f       walFile
	path    string
	records int // records since the last reset (checkpoint pressure)
	// end is the offset just past the last acknowledged record: where the
	// next append writes, and where a failed one is rolled back to.
	end int64
	// failed is the ErrStoreFailed error of a failed rollback, returned by
	// every later append; nil while the log is intact.
	failed error
}

// openWAL opens (creating if absent) the log at path, positioned at its end.
func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, path: path, end: end}, nil
}

// append frames, writes, and fsyncs one record. A failed write or fsync
// is rolled back, so the log ends at its last acknowledged record again.
func (w *wal) append(typ byte, payload []byte) error {
	if w.failed != nil {
		return w.failed
	}
	rec := make([]byte, 0, 4+1+4+len(payload)+4)
	rec = binary.LittleEndian.AppendUint32(rec, walMagic)
	rec = append(rec, typ)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	crc := crc32.Update(0, castagnoli, rec[4:])
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	if _, err := w.f.Write(rec); err != nil {
		return w.rollback(fmt.Errorf("store: wal write: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.rollback(fmt.Errorf("store: wal fsync: %w", err))
	}
	w.end += int64(len(rec))
	w.records++
	return nil
}

// rollback undoes a failed append: it truncates the log back to the last
// acknowledged record, fsyncs the cut and seeks to it, and returns cause.
// A partial record left in place would make replay stop there and drop
// every record acknowledged after it; without the seek the next write
// would leave a zero-filled gap that replay reads as a torn tail. When the
// rollback fails too, the log is marked failed.
func (w *wal) rollback(cause error) error {
	err := w.f.Truncate(w.end)
	if err == nil {
		err = w.f.Sync()
	}
	if err == nil {
		_, err = w.f.Seek(w.end, io.SeekStart)
	}
	if err != nil {
		w.failed = fmt.Errorf("%w: rolling back after %w: %w", ErrStoreFailed, cause, err)
		return w.failed
	}
	return cause
}

// reset truncates the log after a checkpoint has captured its contents.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.end = 0
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
