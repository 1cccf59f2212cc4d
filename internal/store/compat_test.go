package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sdadcs/internal/dataset"
)

// TestDataDirFixture opens testdata/datadir, a data directory written by
// the store at the commit that added it: one dataset checkpointed into
// MANIFEST.json and one that exists only as a WAL register record. Its
// metas and segment footers carry the cont_cols/cat_cols fields of that
// version. Every later store must open it and load both datasets
// bit-identically to dataset.FromCSV of their CSVs, and a checkpoint of
// what it opened must reopen to the same state.
func TestDataDirFixture(t *testing.T) {
	dir := t.TempDir()
	ents, err := os.ReadDir(filepath.Join("testdata", "datadir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", "datadir", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want := []struct {
		id, name, csv string
	}{
		{"ds_ce13f62c926fac5a6d99979234d18668", "checkpointed", "checkpointed.csv"},
		{"ds_1a5a10468ea9d88cda9740d4ccfd56b9", "walonly", "walonly.csv"},
	}
	check := func(s *Store) {
		t.Helper()
		list := s.List()
		if len(list) != len(want) {
			t.Fatalf("List: %d datasets, want %d", len(list), len(want))
		}
		for i, w := range want {
			m := list[i]
			if m.ID != w.id || m.Name != w.name {
				t.Fatalf("List[%d] = %s %q, want %s %q", i, m.ID, m.Name, w.id, w.name)
			}
			csv, err := os.ReadFile(filepath.Join("testdata", w.csv))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := dataset.FromCSV(bytes.NewReader(csv), dataset.CSVOptions{
				GroupColumn:      m.GroupColumn,
				ForceCategorical: m.ForceCategorical,
				Name:             m.Name,
			})
			if err != nil {
				t.Fatalf("FromCSV %s: %v", w.csv, err)
			}
			got, gm, err := s.Load(m.ID)
			if err != nil {
				t.Fatalf("Load %s: %v", m.ID, err)
			}
			requireSameDataset(t, ref, got)
			if gm.Rows != ref.Rows() || gm.Attrs != ref.NumAttrs() || len(gm.Groups) != ref.NumGroups() {
				t.Fatalf("meta %s: %+v", m.ID, gm)
			}
		}
	}

	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if h := s.Health(); h.Recoveries != 1 || h.Datasets != len(want) {
		t.Fatalf("health after open: %+v", h)
	}
	check(s)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	check(s2)
}
