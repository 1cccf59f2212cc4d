package metrics

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestConcurrentIncrements hammers every mutation path from many
// goroutines and checks exact totals. Run under -race in CI: the recorder
// must be lock-free-correct, since parallel per-level mining workers share
// one instance.
func TestConcurrentIncrements(t *testing.T) {
	r := New()
	const workers = 16
	const perWorker = 1000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.PruneHit(PruneMinDeviation)
				r.PruneHit(PruneRule(i % int(numPruneRules)))
				r.NodeEval(1+(i%3), time.Duration(i)*time.Microsecond)
				for c := Counter(0); c < NumCounters; c++ {
					r.Add(c, 1+int(c))
				}
				r.ThresholdUpdate(float64(i))
				r.RemineObserve(time.Duration(1+i) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.PruneHits(PruneMinDeviation); got < workers*perWorker {
		t.Errorf("min_deviation hits = %d, want >= %d", got, workers*perWorker)
	}
	if got := s.TotalPruned(); got != 2*workers*perWorker {
		t.Errorf("total prune hits = %d, want %d", got, 2*workers*perWorker)
	}
	for c := Counter(0); c < NumCounters; c++ {
		if got, want := s.Counter(c), int64(1+c)*workers*perWorker; got != want {
			t.Errorf("%s = %d, want %d", c, got, want)
		}
	}
	if s.ThresholdUpdates != workers*perWorker {
		t.Errorf("ThresholdUpdates = %d, want %d", s.ThresholdUpdates, workers*perWorker)
	}
	if s.NodeEval.Count != workers*perWorker {
		t.Errorf("NodeEval.Count = %d, want %d", s.NodeEval.Count, workers*perWorker)
	}
	if s.Remine.Count != workers*perWorker {
		t.Errorf("Remine.Count = %d, want %d", s.Remine.Count, workers*perWorker)
	}
	if want := int64(time.Millisecond); s.Remine.MinNanos != want {
		t.Errorf("Remine.MinNanos = %d, want %d", s.Remine.MinNanos, want)
	}
	if want := int64(perWorker) * int64(time.Millisecond); s.Remine.MaxNanos != want {
		t.Errorf("Remine.MaxNanos = %d, want %d", s.Remine.MaxNanos, want)
	}
	// Per-level eval observations land on levels 1..3 only.
	if len(s.Levels) != 3 {
		t.Fatalf("levels = %d, want 3 (deepest observed)", len(s.Levels))
	}
	var evalTotal int64
	for _, l := range s.Levels {
		evalTotal += l.EvalNanos
	}
	if evalTotal != s.NodeEval.TotalNanos {
		t.Errorf("per-level eval sum %d != histogram total %d", evalTotal, s.NodeEval.TotalNanos)
	}
}

// TestSnapshotDeterminism: the same recorder state must marshal to
// identical bytes — no map iteration, fixed field order.
func TestSnapshotDeterminism(t *testing.T) {
	r := &Recorder{} // zero start time: no uptime jitter between snapshots
	r.PruneHit(PruneChiSquareOE)
	r.PruneHit(PruneLookupTable)
	r.LevelObserve(1, 10, 4, 2, 3, 5*time.Millisecond)
	r.LevelObserve(2, 40, 0, 1, 3, 9*time.Millisecond)
	r.NodeEval(1, 123*time.Microsecond)
	r.ThresholdUpdate(0.42)
	r.RemineObserve(7 * time.Millisecond)

	a, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("snapshot %d differs:\n%s\nvs\n%s", i, a, b)
		}
	}

	var s Snapshot
	if err := json.Unmarshal(a, &s); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if s.Threshold != 0.42 {
		t.Errorf("threshold = %v, want 0.42", s.Threshold)
	}
	if len(s.Levels) != 2 || s.Levels[0].Level != 1 || s.Levels[1].Level != 2 {
		t.Errorf("levels not in index order: %+v", s.Levels)
	}
	if s.Levels[0].Nodes != 10 || s.Levels[0].Survivors != 4 || s.Levels[0].Workers != 3 {
		t.Errorf("level 1 aggregates wrong: %+v", s.Levels[0])
	}
}

// TestDisabledRecorderAllocs: a nil recorder's methods must not allocate —
// the default mining path stays benchmark-neutral.
func TestDisabledRecorderAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.PruneHit(PrunePureSpace)
		r.LevelObserve(1, 10, 5, 1, 2, time.Millisecond)
		r.NodeEval(1, time.Microsecond)
		for c := Counter(0); c < NumCounters; c++ {
			r.Add(c, 3)
		}
		r.ThresholdUpdate(0.5)
		r.RemineObserve(time.Millisecond)
		if r.Enabled() {
			t.Fatal("nil recorder reports enabled")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled recorder allocates %.1f per op, want 0", allocs)
	}
	if got := r.Snapshot(); got.TotalPruned() != 0 || len(got.Levels) != 0 {
		t.Errorf("nil recorder snapshot not empty: %+v", got)
	}
}

// TestEnabledRecorderCounterAllocs: enabled counters are also
// allocation-free (only Snapshot allocates).
func TestEnabledRecorderCounterAllocs(t *testing.T) {
	r := New()
	allocs := testing.AllocsPerRun(1000, func() {
		r.PruneHit(PruneExpectedCount)
		r.NodeEval(2, time.Microsecond)
		for c := Counter(0); c < NumCounters; c++ {
			r.Add(c, 3)
		}
		r.ThresholdUpdate(0.5)
	})
	if allocs != 0 {
		t.Errorf("enabled counters allocate %.1f per op, want 0", allocs)
	}
}

func TestLevelClamping(t *testing.T) {
	r := New()
	r.LevelObserve(0, 1, 0, 0, 1, 0)            // clamps to level 1
	r.LevelObserve(maxLevels+5, 7, 0, 0, 1, 0)  // clamps into the last slot
	r.NodeEval(maxLevels+9, 42*time.Nanosecond) // same
	s := r.Snapshot()
	if len(s.Levels) != maxLevels {
		t.Fatalf("levels = %d, want %d (clamped deep level)", len(s.Levels), maxLevels)
	}
	if s.Levels[0].Nodes != 1 {
		t.Errorf("level 1 nodes = %d, want 1", s.Levels[0].Nodes)
	}
	last := s.Levels[maxLevels-1]
	if last.Nodes != 7 || last.EvalNanos != 42 {
		t.Errorf("clamped last level = %+v", last)
	}
}

func TestPruneRuleStrings(t *testing.T) {
	seen := map[string]bool{}
	for i := PruneRule(0); i < numPruneRules; i++ {
		name := i.String()
		if name == "unknown" || name == "" {
			t.Errorf("rule %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate rule name %q", name)
		}
		seen[name] = true
	}
	if PruneRule(99).String() != "unknown" {
		t.Error("out-of-range rule should be unknown")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0) // bucket 0
	h.Observe(1) // [1,2)
	h.Observe(900 * time.Nanosecond)
	h.Observe(900 * time.Nanosecond)
	h.Observe(time.Hour * 100) // far past the last bucket: clamps
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	var sum int64
	for i, b := range s.Buckets {
		if b.Count <= 0 {
			t.Errorf("bucket %d empty but present", i)
		}
		if i > 0 && b.LoNanos <= s.Buckets[i-1].LoNanos {
			t.Errorf("buckets out of order at %d", i)
		}
		sum += b.Count
	}
	if sum != s.Count {
		t.Errorf("bucket sum %d != count %d", sum, s.Count)
	}
	// The two 900ns observations share the [512,1024) bucket.
	found := false
	for _, b := range s.Buckets {
		if b.LoNanos == 512 && b.HiNanos == 1024 && b.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("900ns observations not in [512,1024) bucket: %+v", s.Buckets)
	}
	// Mean is defined and total only counts positive durations.
	if s.Mean() <= 0 {
		t.Errorf("mean = %v, want > 0", s.Mean())
	}
}

func TestTimerSnapshotMean(t *testing.T) {
	var tm timer
	if (TimerSnapshot{}).Mean() != 0 {
		t.Error("empty timer mean should be 0")
	}
	tm.observe(10 * time.Millisecond)
	tm.observe(20 * time.Millisecond)
	s := tm.snapshot()
	if s.Mean() != 15*time.Millisecond {
		t.Errorf("mean = %v, want 15ms", s.Mean())
	}
	if s.MinNanos != int64(10*time.Millisecond) || s.MaxNanos != int64(20*time.Millisecond) {
		t.Errorf("min/max = %d/%d", s.MinNanos, s.MaxNanos)
	}
}

// TestWriteJSONSnapshot: the JSON dump carries the live recorder state.
func TestWriteJSONSnapshot(t *testing.T) {
	r := New()
	r.PruneHit(PruneRedundancyCLT)
	r.LevelObserve(1, 3, 1, 1, 1, time.Millisecond)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("body is not snapshot JSON: %v\n%s", err, buf.String())
	}
	if s.PruneHits(PruneRedundancyCLT) != 1 {
		t.Errorf("written snapshot missing prune hit: %+v", s.Prune)
	}
	if s.UptimeNanos <= 0 {
		t.Errorf("uptime = %d, want > 0", s.UptimeNanos)
	}
}

func TestWriteJSONNilRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("nil recorder JSON invalid: %v", err)
	}
}

// TestHistogramEdgeDurations pins the bucket boundaries: zero and negative
// durations land in bucket 0, sub-resolution observations count but add
// nothing to the total, and exact powers of two open a new bucket
// (bucketIndex is [2^(i-1), 2^i)).
func TestHistogramEdgeDurations(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second) // clock skew: counted, not totaled
	s := h.Snapshot()
	if s.Count != 2 || s.TotalNanos != 0 {
		t.Fatalf("count/total = %d/%d, want 2/0", s.Count, s.TotalNanos)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].LoNanos != 0 || s.Buckets[0].HiNanos != 1 {
		t.Fatalf("non-positive durations must share bucket 0: %+v", s.Buckets)
	}
	if s.Mean() != 0 {
		t.Errorf("mean of zero-total histogram = %v, want 0", s.Mean())
	}

	// Power-of-two boundaries: 2^k ns is the first duration of bucket k+1.
	for _, k := range []uint{0, 1, 9, 10, 20} {
		d := time.Duration(int64(1) << k)
		if got, want := bucketIndex(d), int(k)+1; got != want {
			t.Errorf("bucketIndex(2^%d ns) = %d, want %d", k, got, want)
		}
		if got, want := bucketIndex(d-1), int(k); d > 1 && got != want {
			t.Errorf("bucketIndex(2^%d-1 ns) = %d, want %d", k, got, want)
		}
	}
	// 1024ns sits at the bottom of [1024, 2048), not the top of [512, 1024).
	var b Histogram
	b.Observe(1024 * time.Nanosecond)
	bs := b.Snapshot()
	if len(bs.Buckets) != 1 || bs.Buckets[0].LoNanos != 1024 || bs.Buckets[0].HiNanos != 2048 {
		t.Errorf("1024ns bucket = %+v, want [1024,2048)", bs.Buckets)
	}

	// The last bucket is open-ended and absorbs any overflow.
	if got, want := bucketIndex(time.Duration(1)<<62), numBuckets-1; got != want {
		t.Errorf("bucketIndex(2^62 ns) = %d, want clamp to %d", got, want)
	}
}
