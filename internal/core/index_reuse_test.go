package core

import (
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/metrics"
)

// TestIndexReuseAcrossMineCalls: the bitmap index is built once per
// dataset — the first bitmap-mode Mine pays the build, every later Mine
// on the same dataset reuses the cached index and records the reuse.
func TestIndexReuseAcrossMineCalls(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 11, Bachelors: 600, Doctorate: 200})

	rec1 := metrics.New()
	Mine(d, Config{MaxDepth: 2, Metrics: rec1})
	s1 := rec1.Snapshot()
	if s1.BitmapBuilds == 0 {
		t.Fatal("first Mine on a fresh dataset did not build the index")
	}
	if s1.BitmapIndexReuses != 0 {
		t.Fatalf("first Mine recorded %d index reuses, want 0", s1.BitmapIndexReuses)
	}
	if got := d.Index().Builds(); got != 1 {
		t.Fatalf("dataset index builds = %d after first Mine, want 1", got)
	}

	for i := 0; i < 3; i++ {
		rec := metrics.New()
		Mine(d, Config{MaxDepth: 2, Metrics: rec})
		s := rec.Snapshot()
		if s.BitmapBuilds != 0 {
			t.Fatalf("Mine %d rebuilt the index (%d bitmaps)", i+2, s.BitmapBuilds)
		}
		if s.BitmapIndexReuses != 1 {
			t.Fatalf("Mine %d recorded %d index reuses, want 1", i+2, s.BitmapIndexReuses)
		}
	}
	if got := d.Index().Builds(); got != 1 {
		t.Fatalf("dataset index builds = %d after repeated Mines, want 1", got)
	}
}
