package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers durations from <1ns up to ~9 hours in log2 steps:
// bucket i counts observations in [2^(i-1), 2^i) nanoseconds (bucket 0
// is <1ns, the last bucket is open-ended).
const numBuckets = 45

// Histogram is a lock-free log2-bucketed duration histogram. The zero
// value is ready to use; it may be updated from any number of goroutines.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	total   atomic.Int64
}

// bucketIndex maps a duration to its log2 bucket.
func bucketIndex(d time.Duration) int {
	n := int64(d)
	if n <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(n)) // [2^(idx-1), 2^idx)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	if n := int64(d); n > 0 {
		h.total.Add(n)
	}
}

// BucketCount is one non-empty histogram bucket: observations with
// durations in [Lo, Hi) nanoseconds.
type BucketCount struct {
	LoNanos int64 `json:"lo_ns"`
	HiNanos int64 `json:"hi_ns"` // 0 = open-ended (last bucket)
	Count   int64 `json:"count"`
}

// HistogramSnapshot is a copy of a histogram's state. Only non-empty
// buckets appear, in ascending duration order, keeping the JSON compact
// and its shape deterministic.
type HistogramSnapshot struct {
	Count      int64         `json:"count"`
	TotalNanos int64         `json:"total_ns"`
	Buckets    []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the mean observed duration, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.TotalNanos / s.Count)
}

// CumulativeBucket is one Prometheus-style histogram bucket: Count
// observations had durations ≤ HiNanos.
type CumulativeBucket struct {
	HiNanos int64
	Count   int64
}

// Cumulative converts the sparse per-bucket counts into the cumulative
// (upper bound, running count) pairs text-format exposition needs.
// Counts are non-decreasing by construction; observations that landed in
// the open-ended last bucket are only part of the +Inf total, which is
// the snapshot's Count and is not included here.
func (s HistogramSnapshot) Cumulative() []CumulativeBucket {
	out := make([]CumulativeBucket, 0, len(s.Buckets))
	var running int64
	for _, b := range s.Buckets {
		if b.HiNanos == 0 {
			// Open-ended terminal bucket: its observations appear only in
			// the +Inf bucket the encoder appends.
			continue
		}
		running += b.Count
		out = append(out, CumulativeBucket{HiNanos: b.HiNanos, Count: running})
	}
	return out
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var dense [numBuckets]int64
	for i := range dense {
		dense[i] = h.buckets[i].Load()
	}
	return HistogramSnapshot{
		Count:      h.count.Load(),
		TotalNanos: h.total.Load(),
		Buckets:    sparseBuckets(&dense),
	}
}

// merge folds o's observations into s.
func (s *HistogramSnapshot) merge(o HistogramSnapshot) {
	var dense [numBuckets]int64
	for _, bs := range [][]BucketCount{s.Buckets, o.Buckets} {
		for _, b := range bs {
			dense[bucketIndex(time.Duration(b.LoNanos))] += b.Count
		}
	}
	s.Count += o.Count
	s.TotalNanos += o.TotalNanos
	s.Buckets = sparseBuckets(&dense)
}

// sparseBuckets lists the non-empty buckets of dense per-bucket counts in
// ascending duration order (nil when all are empty).
func sparseBuckets(dense *[numBuckets]int64) []BucketCount {
	var out []BucketCount
	for i, c := range dense {
		if c == 0 {
			continue
		}
		b := BucketCount{Count: c}
		if i > 0 {
			b.LoNanos = int64(1) << uint(i-1)
		}
		if i < numBuckets-1 {
			b.HiNanos = int64(1) << uint(i)
		}
		out = append(out, b)
	}
	return out
}
