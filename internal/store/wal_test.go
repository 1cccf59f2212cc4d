package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var errInjected = errors.New("injected fault")

// faultFile is a walFile over a real file that fails on request: fail[op]
// is how many of the next calls of op ("write", "sync", "truncate",
// "seek") fail. A failing write stores the first half of its bytes before
// it reports the error, as a full disk or a dying device can.
type faultFile struct {
	f    *os.File
	fail map[string]int
}

func (ff *faultFile) take(op string) bool {
	if ff.fail[op] == 0 {
		return false
	}
	ff.fail[op]--
	return true
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.take("write") {
		n, _ := ff.f.Write(p[:len(p)/2])
		return n, errInjected
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if ff.take("sync") {
		return errInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if ff.take("truncate") {
		return errInjected
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if ff.take("seek") {
		return 0, errInjected
	}
	return ff.f.Seek(offset, whence)
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// injectFaults swaps the log's file for a faultFile over it.
func injectFaults(t *testing.T, w *wal) *faultFile {
	t.Helper()
	f, ok := w.f.(*os.File)
	if !ok {
		t.Fatalf("wal file is a %T, want *os.File", w.f)
	}
	ff := &faultFile{f: f, fail: map[string]int{}}
	w.f = ff
	return ff
}

// walSchedules are the faults one append can meet. rollbackFails marks
// the ones whose rollback fails as well, after which the log takes no
// more records.
var walSchedules = []struct {
	name          string
	fail          map[string]int
	rollbackFails bool
}{
	{name: "ok"},
	{name: "short write", fail: map[string]int{"write": 1}},
	{name: "fsync", fail: map[string]int{"sync": 1}},
	{name: "short write, truncate", fail: map[string]int{"write": 1, "truncate": 1}, rollbackFails: true},
	{name: "fsync, truncate", fail: map[string]int{"sync": 1, "truncate": 1}, rollbackFails: true},
	{name: "fsync twice", fail: map[string]int{"sync": 2}, rollbackFails: true},
	{name: "short write, seek", fail: map[string]int{"write": 1, "seek": 1}, rollbackFails: true},
}

// TestWALFailedAppendRollsBack appends records to a log through random
// fault schedules and reopens it: replay must give back exactly the
// acknowledged records, in order. A failed append returns its fault; one
// whose rollback fails too returns ErrStoreFailed, as does every append
// after it. Its record may then survive whole when its bytes all landed
// and the truncate failed — an outcome left open, as a crash between a
// record's fsync and its acknowledgement leaves it — so replay may end
// with that one record, and never with any later one.
func TestWALFailedAppendRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		path := filepath.Join(t.TempDir(), walName)
		w, err := openWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		ff := injectFaults(t, w)
		var acked, plan []string
		failed, inflight := false, ""
		for i := 0; i < 12; i++ {
			// Mostly clean appends, so faults land between acknowledged
			// records.
			sc := walSchedules[0]
			if rng.Intn(3) == 0 {
				sc = walSchedules[1+rng.Intn(len(walSchedules)-1)]
			}
			plan = append(plan, sc.name)
			clear(ff.fail)
			for op, n := range sc.fail {
				ff.fail[op] = n
			}
			payload := fmt.Sprintf("record %d of trial %d %s", i, trial, sc.name)
			err := w.append(recRegister, []byte(payload))
			switch {
			case failed:
				if !errors.Is(err, ErrStoreFailed) {
					t.Fatalf("trial %d %v: append after a failed rollback returned %v, want ErrStoreFailed", trial, plan, err)
				}
			case sc.rollbackFails:
				if !errors.Is(err, ErrStoreFailed) || !errors.Is(err, errInjected) {
					t.Fatalf("trial %d %v: append whose rollback fails returned %v", trial, plan, err)
				}
				failed, inflight = true, payload
			case sc.fail != nil:
				if !errors.Is(err, errInjected) || errors.Is(err, ErrStoreFailed) {
					t.Fatalf("trial %d %v: failed append returned %v", trial, plan, err)
				}
			case err != nil:
				t.Fatalf("trial %d %v: clean append: %v", trial, plan, err)
			default:
				acked = append(acked, payload)
			}
		}
		clear(ff.fail)
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		recs, _, err := replayWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range recs {
			got = append(got, string(r.payload))
		}
		if !slices.Equal(got, acked) && !(failed && slices.Equal(got, append(acked, inflight))) {
			t.Fatalf("trial %d %v: replay gives\n%q\nwant the acknowledged\n%q", trial, plan, got, acked)
		}
	}
}

// TestPutAfterFailedWALAppend: a Put whose WAL append fails is not
// registered, the next Put is, and both survive a reopen as exactly that.
// Once a rollback fails, Put returns ErrStoreFailed.
func TestPutAfterFailedWALAppend(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset(t)
	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ff := injectFaults(t, s.wal)
	put := func(i int) (string, error) {
		m := sampleMeta()
		m.ID = fmt.Sprintf("%s_%d", m.ID, i)
		return m.ID, s.Put(d, m)
	}
	var want []string
	for i, fail := range []map[string]int{nil, {"write": 1}, nil, {"sync": 1}, nil} {
		clear(ff.fail)
		for op, n := range fail {
			ff.fail[op] = n
		}
		id, err := put(i)
		if (err != nil) != (fail != nil) {
			t.Fatalf("Put %d with faults %v: %v", i, fail, err)
		}
		if err == nil {
			want = append(want, id)
		}
	}
	ff.fail["sync"] = 2
	if _, err := put(5); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Put whose rollback fails: %v, want ErrStoreFailed", err)
	}
	if _, err := put(6); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Put after a failed rollback: %v, want ErrStoreFailed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	var got []string
	for _, m := range s2.List() {
		got = append(got, m.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("reopened store lists %v, want the acknowledged %v", got, want)
	}
	for _, id := range want {
		loaded, _, err := s2.Load(id)
		if err != nil {
			t.Fatalf("Load %s: %v", id, err)
		}
		requireSameDataset(t, d, loaded)
	}
}
