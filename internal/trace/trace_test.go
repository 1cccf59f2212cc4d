package trace

import (
	"sync"
	"testing"
	"time"

	"sdadcs/internal/pattern"
)

// set parses a canonical key into the itemset a tracer call takes.
func set(key string) pattern.Itemset {
	s, err := pattern.ParseKey(key)
	if err != nil {
		panic(err)
	}
	return s
}

func TestKindStringsRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := kindFromString(name)
		if !ok || back != k {
			t.Errorf("kindFromString(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	if _, ok := kindFromString("nope"); ok {
		t.Error("unknown kind name must not resolve")
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must report disabled")
	}
	if tr.Capacity() != 0 || tr.Now() != 0 {
		t.Error("nil tracer accessors must return zeros")
	}
	// Every emitter must be callable on the nil receiver.
	tr.Level(0, 1, 2, 3, time.Millisecond)
	k := set("0=1")
	tr.Node(1, 0, k, 5, []int{1, 2})
	tr.Prune(1, 0, k, "rule", 1, 2)
	tr.SDAD(0, 0, k, 5, time.Millisecond)
	tr.Split(1, 0, k, "x", 1, 0, 2)
	tr.Space(1, 0, k, 5, []int{1, 2})
	tr.Merge(0, k, "merged", 0.5, 0.2)
	tr.Emit(1, 0, k, 1, 2, 0.01, []int{1, 2})
	tr.TopK(k, "admitted", 0, 1)
	tr.Filter(k, "kept", 1)
	tr.Remine(0, 100, 5, time.Millisecond)
	if e, d, hw := tr.Stats(); e != 0 || d != 0 || hw != 0 {
		t.Error("nil tracer stats must be zero")
	}
	if snap := tr.Snapshot(); len(snap.Events) != 0 {
		t.Error("nil tracer snapshot must be empty")
	}
	if snap := tr.Drain(); len(snap.Events) != 0 {
		t.Error("nil tracer drain must be empty")
	}
}

// TestDisabledTracerAllocs is the zero-alloc proof for the disabled path:
// a nil tracer's emitters must not allocate (mirrors
// metrics.TestDisabledRecorderAllocs).
func TestDisabledTracerAllocs(t *testing.T) {
	var tr *Tracer
	counts := []int{10, 20}
	key := set("0=1|2@-inf,5")
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Node(1, 0, key, 30, counts)
		tr.Prune(1, 0, key, "min_deviation", 0.05, 0.1)
		tr.Space(2, 0, key, 30, counts)
		tr.Emit(1, 0, key, 0.4, 12.5, 0.001, counts)
		tr.TopK(key, "admitted", 0.1, 0.2)
		tr.Filter(key, "kept", 0.4)
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocated %.1f times per run, want 0", allocs)
	}
}

// TestEnabledTracerEmitAllocs pins the enabled hot path: emitting into an
// installed ring page must not allocate either (events are fixed-size
// values holding the itemset, not a formatted key; counts copy into the
// inline array). The 1,002 emits, warm-up run included, fit within the
// first page, which the warm-up run installs.
func TestEnabledTracerEmitAllocs(t *testing.T) {
	tr := New(1 << 12)
	counts := []int{10, 20}
	key := set("0=1|2@-inf,5")
	allocs := testing.AllocsPerRun(500, func() {
		tr.Prune(1, 0, key, "min_deviation", 0.05, 0.1)
		tr.Node(1, 0, key, 30, counts)
	})
	if allocs != 0 {
		t.Errorf("enabled emit allocated %.1f times per run, want 0", allocs)
	}
}

func TestTracerRecordsEvents(t *testing.T) {
	tr := New(16)
	tr.Node(2, 1, set("0=1"), 30, []int{10, 20})
	tr.Prune(2, 1, set("0=1"), "min_deviation", 0.05, 0.1)
	snap := tr.Snapshot()
	if len(snap.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(snap.Events))
	}
	n := snap.Events[0]
	if n.Kind != KindNode || n.Key() != "0=1" || n.Level != 2 || n.Worker != 1 || n.V1 != 30 {
		t.Errorf("node event mismatch: %+v", n)
	}
	if got := n.GroupCounts(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("group counts = %v", got)
	}
	p := snap.Events[1]
	if p.Kind != KindPrune || p.Arg != "min_deviation" || p.V1 != 0.05 || p.V2 != 0.1 {
		t.Errorf("prune event mismatch: %+v", p)
	}
	if p.Seq != 1 || p.TS < n.TS {
		t.Errorf("sequence/timestamp order broken: %+v then %+v", n, p)
	}
}

func TestTracerOverflowDropsAndCounts(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.TopK(set("0=1"), "admitted", 0, float64(i))
	}
	emitted, dropped, hw := tr.Stats()
	if emitted != 10 || dropped != 6 || hw != 4 {
		t.Errorf("stats = (%d, %d, %d), want (10, 6, 4)", emitted, dropped, hw)
	}
	snap := tr.Snapshot()
	if len(snap.Events) != 4 {
		t.Fatalf("snapshot holds %d events, want capacity 4", len(snap.Events))
	}
	// Drop-newest policy: the first four events survive.
	for i, e := range snap.Events {
		if e.V2 != float64(i) {
			t.Errorf("event %d: V2 = %v, want %d (early events must survive)", i, e.V2, i)
		}
	}
	if snap.Emitted != 10 || snap.Dropped != 6 || snap.HighWater != 4 || snap.Capacity != 4 {
		t.Errorf("snapshot counters = %+v", snap)
	}
}

// TestTracerConcurrentEmitters spreads racing emitters over several ring
// pages: a page installed twice would lose the events written to the
// losing copy.
func TestTracerConcurrentEmitters(t *testing.T) {
	tr := New(1 << 13)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Prune(1, w, set("0=1"), "rule", float64(i), 0)
			}
		}(w)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Events) != workers*per {
		t.Fatalf("got %d events, want %d", len(snap.Events), workers*per)
	}
	seen := make(map[uint64]bool, len(snap.Events))
	for _, e := range snap.Events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestSnapshotWhileEmitting takes snapshots while emitters are still
// claiming tickets and installing pages, as a reader of a running mine's
// tracer may: every snapshot holds only whole, published events in sequence
// order, and the one taken after the emitters stop holds them all.
func TestSnapshotWhileEmitting(t *testing.T) {
	tr := New(1 << 13)
	const workers, per = 4, 1500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Node(1, w, set("0=1"), i, []int{i, w})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	check := func(snap *Trace) {
		for i, e := range snap.Events {
			if i > 0 && e.Seq <= snap.Events[i-1].Seq {
				t.Fatalf("seq %d after %d", e.Seq, snap.Events[i-1].Seq)
			}
			if e.Kind != KindNode || e.Key() != "0=1" || e.NG != 2 ||
				e.Counts[0] != int32(e.V1) || e.Counts[1] != e.Worker {
				t.Fatalf("torn event %+v", e)
			}
		}
	}
	for live := true; live; {
		select {
		case <-done:
			live = false
		default:
		}
		check(tr.Snapshot())
	}
	final := tr.Snapshot()
	check(final)
	if len(final.Events) != workers*per {
		t.Fatalf("final snapshot holds %d events, want %d", len(final.Events), workers*per)
	}
}

func TestDrainResetsBufferKeepsCounters(t *testing.T) {
	tr := New(4)
	for i := 0; i < 6; i++ { // 2 dropped
		tr.Filter(set("0=1"), "kept", float64(i))
	}
	seg1 := tr.Drain()
	if len(seg1.Events) != 4 || seg1.Emitted != 6 || seg1.Dropped != 2 {
		t.Fatalf("segment 1 = %d events, emitted %d, dropped %d", len(seg1.Events), seg1.Emitted, seg1.Dropped)
	}
	tr.Filter(set("1=2"), "kept", 9)
	seg2 := tr.Drain()
	if len(seg2.Events) != 1 || seg2.Events[0].Key() != "1=2" {
		t.Fatalf("segment 2 = %+v", seg2.Events)
	}
	// Cumulative counters survive the drain.
	if seg2.Emitted != 7 || seg2.Dropped != 2 || seg2.HighWater != 4 {
		t.Errorf("cumulative counters = %d/%d/%d, want 7/2/4", seg2.Emitted, seg2.Dropped, seg2.HighWater)
	}
}

func TestPutCountsTruncatesAtMaxGroups(t *testing.T) {
	tr := New(4)
	counts := make([]int, MaxGroups+3)
	for i := range counts {
		counts[i] = i + 1
	}
	tr.Node(1, 0, set("0=1"), 99, counts)
	snap := tr.Snapshot()
	got := snap.Events[0].GroupCounts()
	if len(got) != MaxGroups {
		t.Fatalf("kept %d counts, want %d", len(got), MaxGroups)
	}
	for i, c := range got {
		if c != i+1 {
			t.Errorf("count %d = %d, want %d", i, c, i+1)
		}
	}
}

func TestNewDefaultCapacity(t *testing.T) {
	if got := New(0).Capacity(); got != DefaultCapacity {
		t.Errorf("New(0).Capacity() = %d, want %d", got, DefaultCapacity)
	}
	if got := New(7).Capacity(); got != 7 {
		t.Errorf("New(7).Capacity() = %d, want 7", got)
	}
}

// TestRingPagesOnDemand pins the lazy ring: a new tracer holds no event
// memory, an emit installs only the page its ticket falls in, and a
// capacity that is not a whole number of pages still drops exactly past
// it.
func TestRingPagesOnDemand(t *testing.T) {
	tr := New(0)
	if len(tr.pages) != DefaultCapacity>>pageShift {
		t.Fatalf("%d pages, want %d", len(tr.pages), DefaultCapacity>>pageShift)
	}
	for i := range tr.pages {
		if tr.pages[i].Load() != nil {
			t.Fatalf("page %d installed before any emit", i)
		}
	}
	tr.Filter(set("0=1"), "kept", 1)
	if tr.pages[0].Load() == nil || tr.pages[1].Load() != nil {
		t.Error("one emit must install exactly the first page")
	}

	const capacity = 1<<pageShift + 3
	tr = New(capacity)
	for i := 0; i < capacity+5; i++ {
		tr.TopK(set("0=1"), "admitted", 0, float64(i))
	}
	snap := tr.Snapshot()
	if len(snap.Events) != capacity || snap.Dropped != 5 {
		t.Fatalf("kept %d events, dropped %d; want %d and 5", len(snap.Events), snap.Dropped, capacity)
	}
	for i, e := range snap.Events {
		if e.Seq != uint64(i) || e.V2 != float64(i) {
			t.Fatalf("event %d: seq %d, V2 %v", i, e.Seq, e.V2)
		}
	}
	if cap(snap.Events) != capacity {
		t.Errorf("snapshot slice capacity %d, want exactly %d", cap(snap.Events), capacity)
	}
}

func TestIndexGroupsByKey(t *testing.T) {
	tr := New(16)
	a := set("0=1|2@-inf,5")
	tr.Node(1, 0, a, 10, nil)
	tr.Prune(1, 0, set("0=1|2@-inf,5"), "not_large", 0.05, 0.1)
	tr.Node(1, 0, set("0=2"), 20, nil)
	tr.Level(0, 1, 3, 2, time.Millisecond) // key-less event
	ix := NewIndex(tr.Snapshot())
	if ix.Keys() != 2 {
		t.Errorf("indexed %d keys, want 2", ix.Keys())
	}
	chain := ix.Events(a)
	if len(chain) != 2 || chain[0].Kind != KindNode || chain[1].Kind != KindPrune {
		t.Errorf("chain for a = %+v", chain)
	}
	if len(ix.Events(set("0=3"))) != 0 {
		t.Error("unknown key must yield no events")
	}
	if len(ix.All()) != 4 {
		t.Errorf("All() = %d events, want 4", len(ix.All()))
	}
	empty := NewIndex(nil)
	if empty.Keys() != 0 {
		t.Error("nil trace must index nothing")
	}
}
