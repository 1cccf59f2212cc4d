package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tailBeyond is how many samples must lie above a tail percentile.
const tailBeyond = 10

// minSamples is the fewest latency samples a timed loop collects before it
// may stop: enough for a tail percentile at or above the median.
const minSamples = 2 * tailBeyond

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least tailBeyond
// samples above it: the (tailBeyond+1)-th largest sample, at percentile
// 100·(n−tailBeyond)/n. ok is false when fewer than 2·tailBeyond samples
// exist, because the tail would then sit below the median.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n < 2*tailBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// blockRate is a throughput robust to bursts of contention from outside
// the process: the median, over consecutive blocks of size operations, of
// the block's operations per second of summed latency. A partial last
// block is dropped; with no full block, all operations form one.
func blockRate(lat []float64, size int) float64 {
	var rates []float64
	for i := 0; i+size <= len(lat); i += size {
		rates = append(rates, ratio(float64(size), sum(lat[i:i+size])))
	}
	if len(rates) == 0 {
		return ratio(float64(len(lat)), sum(lat))
	}
	return median(rates)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts operations attempted and failed. An operation fails when
// the system refuses it, errs, or returns a wrong output.
type tally struct {
	attempted, failed int
	reasons           []string // the first few failures, for the report
}

// record counts one attempted operation, failed when err is non-nil.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

// fail marks an already attempted operation as failed, for an output check
// made after the operation was counted.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, err.Error())
	}
}

// add merges another tally (one client's) into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	for _, r := range o.reasons {
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, r)
		}
	}
	t.failed += o.failed
}

func (t *tally) ratio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// statusErr turns an HTTP status other than want into an error: a refusal
// (429) and any other unexpected status both fail the operation.
func statusErr(op string, got, want int) error {
	switch {
	case got == want:
		return nil
	case got == http.StatusTooManyRequests:
		return fmt.Errorf("%s: refused (429)", op)
	default:
		return fmt.Errorf("%s: status %d, want %d", op, got, want)
	}
}

// span is one timed interval recorded by the benchmark around a call into
// the system. Spans of one client operation share Trace; Parent links a
// span to the span that caused it.
type span struct {
	Trace   uint64             `json:"trace"`
	ID      uint64             `json:"id"`
	Parent  uint64             `json:"parent,omitempty"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// spanLog keeps spans in memory until the run ends. A nil *spanLog is the
// untraced run: it hands out zero IDs and records nothing.
type spanLog struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// id allocates a span or trace ID.
func (l *spanLog) id() uint64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

// add records a finished span [start, end).
func (l *spanLog) add(trace, id, parent uint64, name string, start, end time.Time, attrs map[string]float64) {
	if l == nil {
		return
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(l.epoch)), EndNs: int64(end.Sub(l.epoch)), Attrs: attrs}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// time runs f, records it as a span with a fresh ID, and returns its
// duration in seconds. Untraced runs time f the same way.
func (l *spanLog) time(trace, parent uint64, name string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	l.add(trace, l.id(), parent, name, start, end, nil)
	return end.Sub(start).Seconds()
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// durations returns the durations, in seconds, of every span named name.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// writeFile writes the spans as JSON Lines in recording order.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// subSeed derives an independent seed for one generated input from the
// run's seed and the input's coordinates (splitmix64 finalizer).
func subSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1) // non-negative
}
