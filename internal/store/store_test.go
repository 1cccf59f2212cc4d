package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sdadcs/internal/dataset"
)

const sampleCSV = `temp,pressure,machine,site,status
20.1,1.5,m1,north,ok
21.7,?,m2,north,fail
19.9,1.4,m1,south,ok
25.0,1.9,m3,south,fail
22.2,1.6,m2,north,ok
20.0,1.5,m3,south,fail
`

func sampleDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	d, err := dataset.FromCSV(strings.NewReader(sampleCSV), dataset.CSVOptions{
		GroupColumn:      "status",
		ForceCategorical: []string{"machine"},
		Name:             "sample",
	})
	if err != nil {
		t.Fatalf("FromCSV: %v", err)
	}
	return d
}

func sampleMeta() Meta {
	return Meta{
		ID:               "ds_0011223344556677",
		Name:             "sample",
		GroupColumn:      "status",
		ForceCategorical: []string{"machine"},
		RegisteredAt:     time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
	}
}

// requireSameDataset asserts bit-identity: schema, domains in order,
// codes, float bit patterns (NaN included), and group coding.
func requireSameDataset(t *testing.T, want, got *dataset.Dataset) {
	t.Helper()
	if got.Name() != want.Name() {
		t.Fatalf("name %q, want %q", got.Name(), want.Name())
	}
	if got.Rows() != want.Rows() || got.NumAttrs() != want.NumAttrs() {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows(), got.NumAttrs(), want.Rows(), want.NumAttrs())
	}
	for i := 0; i < want.NumAttrs(); i++ {
		wa, ga := want.Attr(i), got.Attr(i)
		if wa.Name != ga.Name || wa.Kind != ga.Kind {
			t.Fatalf("attr %d: %v/%v, want %v/%v", i, ga.Name, ga.Kind, wa.Name, wa.Kind)
		}
		if wa.Kind == dataset.Continuous {
			wc, gc := want.ContColumn(i), got.ContColumn(i)
			for r := range wc {
				if math.Float64bits(wc[r]) != math.Float64bits(gc[r]) {
					t.Fatalf("attr %d row %d: %v, want %v (bit-level)", i, r, gc[r], wc[r])
				}
			}
			continue
		}
		wd, gd := want.Domain(i), got.Domain(i)
		if len(wd) != len(gd) {
			t.Fatalf("attr %d domain size %d, want %d", i, len(gd), len(wd))
		}
		for c := range wd {
			if wd[c] != gd[c] {
				t.Fatalf("attr %d domain[%d] %q, want %q", i, c, gd[c], wd[c])
			}
		}
		wcodes, gcodes := want.CatCodes(i), got.CatCodes(i)
		for r := range wcodes {
			if wcodes[r] != gcodes[r] {
				t.Fatalf("attr %d code row %d: %d, want %d", i, r, gcodes[r], wcodes[r])
			}
		}
	}
	if got.NumGroups() != want.NumGroups() {
		t.Fatalf("groups %d, want %d", got.NumGroups(), want.NumGroups())
	}
	for g := 0; g < want.NumGroups(); g++ {
		if got.GroupName(g) != want.GroupName(g) {
			t.Fatalf("group %d name %q, want %q", g, got.GroupName(g), want.GroupName(g))
		}
	}
	for r := 0; r < want.Rows(); r++ {
		if got.Group(r) != want.Group(r) {
			t.Fatalf("group row %d: %d, want %d", r, got.Group(r), want.Group(r))
		}
	}
}

// TestSegmentRoundTripGolden is the golden bit-identity test: a freshly
// parsed CSV encoded to segments and decoded back must match the original
// exactly — codes, first-appearance domain order, NaN bit patterns,
// group coding.
func TestSegmentRoundTripGolden(t *testing.T) {
	d := sampleDataset(t)
	data := EncodeSegments(d, sampleMeta())
	got, m, err := DecodeSegments(data)
	if err != nil {
		t.Fatalf("DecodeSegments: %v", err)
	}
	requireSameDataset(t, d, got)
	if m.ID != sampleMeta().ID || m.Rows != d.Rows() || m.GroupColumn != "status" {
		t.Fatalf("meta round-trip: %+v", m)
	}
	if len(m.Groups) != 2 || m.Groups[0] != "ok" || m.Groups[1] != "fail" {
		t.Fatalf("meta groups %v", m.Groups)
	}
	// NaN must survive: pressure row 1 was "?".
	pressure := got.AttrIndex("pressure")
	if !math.IsNaN(got.Cont(pressure, 1)) {
		t.Fatalf("NaN did not survive round trip: %v", got.Cont(pressure, 1))
	}
}

func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset(t)
	m := sampleMeta()

	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Health().Recoveries != 0 {
		t.Fatalf("fresh open counted a recovery")
	}
	if err := s.Put(d, m); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(d, m); err != nil { // idempotent
		t.Fatalf("second Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if h := s2.Health(); h.Recoveries != 1 || h.Datasets != 1 {
		t.Fatalf("health after restart: %+v", h)
	}
	list := s2.List()
	if len(list) != 1 || list[0].ID != m.ID || list[0].Rows != d.Rows() {
		t.Fatalf("List after restart: %+v", list)
	}
	got, gm, err := s2.Load(m.ID)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireSameDataset(t, d, got)
	if gm.Name != "sample" {
		t.Fatalf("meta name %q", gm.Name)
	}
	if s2.Health().ColdLoads != 1 {
		t.Fatalf("cold loads: %d", s2.Health().ColdLoads)
	}
}

// TestPutCheckpointRestart checkpoints a registered dataset: the WAL is
// emptied, and a reopen rebuilds the store from the manifest and segments
// alone.
func TestPutCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset(t)
	m := sampleMeta()

	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(d, m); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if h := s.Health(); h.Checkpoints != 1 {
		t.Fatalf("checkpoints: %d", h.Checkpoints)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal not truncated after checkpoint: %v %d", err, fi.Size())
	}
	s.Close()

	s2, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer s2.Close()
	if h := s2.Health(); h.Recoveries != 1 || h.Datasets != 1 {
		t.Fatalf("health after restart: %+v", h)
	}
	got, gm, err := s2.Load(m.ID)
	if err != nil {
		t.Fatalf("Load from checkpointed segments: %v", err)
	}
	requireSameDataset(t, d, got)
	if gm.Rows != d.Rows() || gm.Name != m.Name {
		t.Fatalf("meta after restart: %+v", gm)
	}
}

// TestTornWALTail simulates a crash mid-append: a truncated record at the
// WAL's tail. Recovery must keep every record before the tear and
// truncate the torn bytes.
func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset(t)
	ids := putSampleIDs(t, dir, 2)

	// Tear the tail: append a valid-looking record header whose payload
	// never made it to disk.
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, full...), []byte{0x31, 0x4C, 0x57, 0x53, recRegister, 0xFF, 0x00, 0x00, 0x00, 0xDE, 0xAD}...)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer s2.Close()
	if h := s2.Health(); h.Recoveries != 1 || h.Datasets != len(ids) {
		t.Fatalf("health after recovery: %+v", h)
	}
	// Everything before the tear survived.
	for _, id := range ids {
		got, _, err := s2.Load(id)
		if err != nil {
			t.Fatalf("Load %s: %v", id, err)
		}
		requireSameDataset(t, d, got)
	}
	// And the file itself was truncated back to the intact prefix.
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(full) {
		t.Fatalf("wal is %d bytes after recovery, want %d", len(after), len(full))
	}
}

// putSampleIDs registers the sample dataset under n distinct IDs in a
// store at dir, closes it without a checkpoint, and returns the IDs.
func putSampleIDs(t *testing.T, dir string, n int) []string {
	t.Helper()
	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	d := sampleDataset(t)
	var ids []string
	for i := 0; i < n; i++ {
		m := sampleMeta()
		m.ID = fmt.Sprintf("%s_%d", m.ID, i)
		if err := s.Put(d, m); err != nil {
			t.Fatalf("Put %s: %v", m.ID, err)
		}
		ids = append(ids, m.ID)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return ids
}

// TestBitFlipQuarantine flips one payload byte in a segment file: the CRC
// catches it at load time, the file is quarantined, and the store keeps
// working — the failure is a typed, non-fatal error.
func TestBitFlipQuarantine(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset(t)
	m := sampleMeta()

	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(d, m); err != nil {
		t.Fatalf("Put: %v", err)
	}

	segPath := filepath.Join(dir, m.ID+segSuffix)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+20] ^= 0x40 // inside the first column's payload
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = s.Load(m.ID)
	if err == nil {
		t.Fatalf("load of bit-flipped segment succeeded")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.ID != m.ID {
		t.Fatalf("error %v is not a *CorruptError for %s", err, m.ID)
	}
	if h := s.Health(); h.CorruptSegments != 1 || h.Datasets != 0 {
		t.Fatalf("health after quarantine: %+v", h)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, m.ID+segSuffix)); err != nil {
		t.Fatalf("segment not quarantined: %v", err)
	}
	if _, err := os.Stat(segPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt segment still in place: %v", err)
	}
	// The store still accepts new work.
	if err := s.Put(d, m); err != nil {
		t.Fatalf("Put after quarantine: %v", err)
	}
	if _, _, err := s.Load(m.ID); err != nil {
		t.Fatalf("Load after re-Put: %v", err)
	}
	s.Close()

	// The quarantine is durable: a restart does not resurrect the old meta
	// twice or trip over the quarantined file.
	s2, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if len(s2.List()) != 1 {
		t.Fatalf("List after restart: %+v", s2.List())
	}
}

// TestCheckpointKilledMidRename simulates dying between writing the
// manifest temp file and the atomic rename: recovery removes the orphan
// temp and reconstructs state from the previous manifest plus the WAL.
func TestCheckpointKilledMidRename(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset(t)
	m := sampleMeta()

	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(d, m); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Close()

	// The stranded temp files of an interrupted checkpoint.
	for _, name := range []string{manifestName + ".tmp", m.ID + segSuffix + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for _, name := range []string{manifestName + ".tmp", m.ID + segSuffix + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s not removed by recovery: %v", name, err)
		}
	}
	got, _, err := s2.Load(m.ID)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireSameDataset(t, d, got)
}

// TestCheckpointSweepsOrphanSegment plants the segment a Put leaves when
// its WAL append fails after the segment was renamed into place: no meta
// references it, so a checkpoint removes it and keeps the registered one.
func TestCheckpointSweepsOrphanSegment(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset(t)
	m := sampleMeta()

	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := s.Put(d, m); err != nil {
		t.Fatalf("Put: %v", err)
	}
	orphan := m
	orphan.ID = "ds_orphan"
	orphanPath := filepath.Join(dir, orphan.ID+segSuffix)
	if err := os.WriteFile(orphanPath, EncodeSegments(d, orphan), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := os.Stat(orphanPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan segment survived the checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, m.ID+segSuffix)); err != nil {
		t.Fatalf("registered segment swept: %v", err)
	}
	got, _, err := s.Load(m.ID)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireSameDataset(t, d, got)
}

// TestCheckpointSparesInFlightPut races Puts against the checkpoints
// they trigger: a segment renamed into place whose register record is
// not yet logged looks like an orphan, and sweeping it would lose an
// acknowledged registration.
func TestCheckpointSparesInFlightPut(t *testing.T) {
	d := sampleDataset(t)
	s, err := Open(t.TempDir(), Options{CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	const writers, puts = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				m := sampleMeta()
				m.ID = fmt.Sprintf("%s_%d_%d", m.ID, w, i)
				if err := s.Put(d, m); err != nil {
					t.Errorf("Put %s: %v", m.ID, err)
				}
			}
		}(w)
	}
	wg.Wait()
	list := s.List()
	if len(list) != writers*puts {
		t.Fatalf("List: %d datasets, want %d", len(list), writers*puts)
	}
	for _, m := range list {
		if _, _, err := s.Load(m.ID); err != nil {
			t.Fatalf("Load %s: %v", m.ID, err)
		}
	}
}

// TestConcurrentPutsOfOneID races two Puts of the same dataset on a fresh
// store, as two registrations of identical bytes do: both must succeed,
// and the stored dataset must load back bit-identical.
func TestConcurrentPutsOfOneID(t *testing.T) {
	d := sampleDataset(t)
	for round := 0; round < 50; round++ {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = s.Put(d, sampleMeta())
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d: Put %d: %v", round, w, err)
			}
		}
		got, _, err := s.Load(sampleMeta().ID)
		if err != nil {
			t.Fatalf("round %d: Load: %v", round, err)
		}
		requireSameDataset(t, d, got)
		s.Close()
	}
}

// TestCheckpointManifestFailureKeepsWAL makes the manifest write fail (a
// directory squats on the manifest's path, so the rename fails):
// Checkpoint must fail before it truncates the WAL and leave no temp file,
// so every registration survives a reopen.
func TestCheckpointManifestFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset(t)
	ids := putSampleIDs(t, dir, 2)
	walPath := filepath.Join(dir, walName)
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	squat := filepath.Join(dir, manifestName)
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatalf("Checkpoint succeeded with its manifest path taken")
	}
	if h := s.Health(); h.Checkpoints != 0 {
		t.Fatalf("failed checkpoint counted: %+v", h)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("wal is %d bytes after the failed checkpoint, want the %d it had", len(after), len(before))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed checkpoint left temp files %v", tmps)
	}
	if err := os.Remove(squat); err != nil {
		t.Fatalf("the squatting directory holds a manifest written by a failed checkpoint: %v", err)
	}
	s.Close()

	s2, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if h := s2.Health(); h.Datasets != len(ids) {
		t.Fatalf("health after reopen: %+v", h)
	}
	for _, id := range ids {
		got, _, err := s2.Load(id)
		if err != nil {
			t.Fatalf("Load %s: %v", id, err)
		}
		requireSameDataset(t, d, got)
	}
}

// TestAutomaticCheckpoint drives enough WAL records through the store to
// trip the CheckpointEvery threshold.
func TestAutomaticCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset(t)

	s, err := Open(dir, Options{CheckpointEvery: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		if h := s.Health(); h.Checkpoints != 0 {
			t.Fatalf("checkpoint after %d records: %+v", i, h)
		}
		m := sampleMeta()
		m.ID = fmt.Sprintf("%s_%d", m.ID, i)
		if err := s.Put(d, m); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		ids = append(ids, m.ID)
	}
	if h := s.Health(); h.Checkpoints != 1 {
		t.Fatalf("checkpoints after threshold: %+v", h)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest missing after automatic checkpoint: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal not truncated after automatic checkpoint: %v %d", err, fi.Size())
	}
	for _, id := range ids {
		got, gm, err := s.Load(id)
		if err != nil {
			t.Fatalf("Load %s: %v", id, err)
		}
		if gm.Rows != d.Rows() || got.Rows() != d.Rows() {
			t.Fatalf("rows of %s: meta %d dataset %d", id, gm.Rows, got.Rows())
		}
	}
}

// TestRetiredAppendRecordIsCorrupt replays a WAL holding a record of
// type 3, the row-append type no store writes any more: Open must reject
// the log as corrupt rather than skip the record.
func TestRetiredAppendRecordIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	wal := frameRecord(nil, 3, []byte("ds_0011223344556677"))
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err == nil {
		s.Close()
		t.Fatalf("Open accepted a type-3 wal record")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":      {},
		"short":      []byte("SDSEG"),
		"bad magic":  []byte("NOTASEGMENTFILE_AT_ALL__________"),
		"no trailer": append([]byte(segMagic), make([]byte, 64)...),
	}
	for name, data := range cases {
		if _, _, err := DecodeSegments(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", name, err)
		}
	}
}
