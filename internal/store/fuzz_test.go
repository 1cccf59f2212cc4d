package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdadcs/internal/dataset"
)

// FuzzSegmentReader throws arbitrary bytes at DecodeSegments: it must
// never panic or over-allocate, and anything it accepts must be a valid
// dataset whose re-encoding decodes again. Seeded with real segment
// files and targeted corruptions of them so the fuzzer starts deep inside
// the format instead of at the magic check.
func FuzzSegmentReader(f *testing.F) {
	d, err := dataset.FromCSV(strings.NewReader(sampleCSV), dataset.CSVOptions{
		GroupColumn:      "status",
		ForceCategorical: []string{"machine"},
		Name:             "sample",
	})
	if err != nil {
		f.Fatal(err)
	}
	valid := EncodeSegments(d, sampleMeta())
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add([]byte(segMagic + trailerMagic))
	for _, off := range []int{8, 9, 20, len(valid) / 2, len(valid) - 10, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xFF
		f.Add(mut)
	}
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), valid...))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, m, err := DecodeSegments(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corrupt error from decode: %v", err)
			}
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoded dataset fails validation: %v", err)
		}
		if got.Rows() != m.Rows {
			t.Fatalf("decoded %d rows, meta says %d", got.Rows(), m.Rows)
		}
		if _, _, err := DecodeSegments(EncodeSegments(got, m)); err != nil {
			t.Fatalf("re-encoded accepted dataset fails decode: %v", err)
		}
	})
}

// FuzzWALReplay throws arbitrary bytes at parseWAL, the byte loop behind
// replayWAL: it must never panic, and the records it returns must be
// exactly the framed prefix data[:good] — re-framing them reproduces
// those bytes. Every recAppend payload either decodes or fails with the
// typed *CorruptError, and replaying the truncated image again yields the
// same records with no torn tail left. Seeded with a real
// register/append/delete log plus torn tails and bit-flipped copies of it.
func FuzzWALReplay(f *testing.F) {
	valid := sampleWAL(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:9]) // a lone record header
	for _, cut := range []int{1, 4, 10, len(valid) / 2, len(valid) - 4, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	for _, off := range []int{0, 4, 5, 9, 12, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x10
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), valid...), 0x31, 0x4C, 0x57, 0x53, recAppend, 0xFF, 0, 0, 0, 0xDE, 0xAD))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := parseWAL(data)
		if good < 0 || good > len(data) {
			t.Fatalf("intact prefix ends at %d of %d bytes", good, len(data))
		}
		var framed []byte
		for _, r := range recs {
			framed = frameRecord(framed, r.typ, r.payload)
		}
		if !bytes.Equal(framed, data[:good]) {
			t.Fatalf("%d records re-frame to %d bytes, not the %d-byte prefix", len(recs), len(framed), good)
		}
		for i, r := range recs {
			if r.typ != recAppend {
				continue
			}
			if _, _, err := decodeBatch(r.payload); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("record %d: untyped append decode error: %v", i, err)
				}
			}
		}
		again, good2 := parseWAL(data[:good])
		if good2 != good {
			t.Fatalf("replaying the truncated log left a torn tail at %d of %d bytes", good2, good)
		}
		if len(again) != len(recs) {
			t.Fatalf("truncated log replays %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i].typ != recs[i].typ || !bytes.Equal(again[i].payload, recs[i].payload) {
				t.Fatalf("record %d differs after truncation", i)
			}
		}
	})
}

// sampleWAL returns the log a store writes for a register, an append and
// a delete of the sample dataset.
func sampleWAL(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	m := sampleMeta()
	if err := s.Put(sampleDataset(tb), m); err != nil {
		tb.Fatalf("Put: %v", err)
	}
	batch := &RowBatch{
		Cont:   [][]float64{{30.5, math.NaN()}, {2.0, 1.1}},
		Cat:    [][]string{{"m4", "m1"}, {"west", "north"}},
		Groups: []string{"ok", "fail"},
	}
	if err := s.Append(m.ID, batch); err != nil {
		tb.Fatalf("Append: %v", err)
	}
	if err := s.Delete(m.ID); err != nil {
		tb.Fatalf("Delete: %v", err)
	}
	if err := s.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		tb.Fatal(err)
	}
	if recs, good := parseWAL(data); len(recs) != 3 || good != len(data) {
		tb.Fatalf("sample log: %d records, %d of %d bytes intact", len(recs), good, len(data))
	}
	return data
}

// frameRecord appends one record in the WAL framing, written out
// independently of wal.append so the prefix check does not trust it.
func frameRecord(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, walMagic)
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start+4:], castagnoli))
}
