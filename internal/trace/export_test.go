package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"sdadcs/internal/pattern"
)

// sampleTracer builds a tracer with one event of every emitter shape.
func sampleTracer() *Tracer {
	tr := New(64)
	tr.SDAD(tr.Now(), 0, pattern.Itemset{}, 100, 2*time.Millisecond)
	tr.Node(1, 0, set("0=1"), 30, []int{10, 20})
	tr.Prune(2, 1, set("0=1|1=2"), "lookup_table:0=1", 0, 0)
	tr.Split(1, 0, set("2@0,8p-1"), "width", 3.25, math.Inf(-1), 4) // open lower bound
	tr.Space(2, 0, set("2@0,13p-2"), 17, []int{9, 8})
	tr.Merge(0, set("2@0,13p-2"), "merged", 0.72, 0.31)
	tr.Emit(2, 1, set("0=1|1=2"), 0.4, 12.5, 0.0004, []int{25, 5})
	tr.TopK(set("0=1|1=2"), "admitted", 0.1, 0.2)
	tr.Filter(set("0=1|1=2"), "kept", 0.4)
	tr.Level(tr.Now(), 1, 12, 7, 3*time.Millisecond)
	tr.Remine(tr.Now(), 2000, 9, 5*time.Millisecond)
	return tr
}

func TestJSONLRoundTrip(t *testing.T) {
	snap := sampleTracer().Snapshot()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(snap.Events) {
		t.Errorf("wrote %d lines, want %d", got, len(snap.Events))
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(snap.Events) {
		t.Fatalf("decoded %d events, want %d", len(back.Events), len(snap.Events))
	}
	for i := range snap.Events {
		if !sameEvent(&snap.Events[i], &back.Events[i]) {
			t.Errorf("event %d drifted:\n  out: %+v\n  in:  %+v",
				i, snap.Events[i], back.Events[i])
		}
	}
	if back.Emitted != uint64(len(back.Events)) {
		t.Errorf("Emitted = %d, want %d", back.Emitted, len(back.Events))
	}
}

// TestJSONLDeterministicBytes pins the field order: two encodes of the
// same trace are byte-identical (the property golden files depend on).
func TestJSONLDeterministicBytes(t *testing.T) {
	snap := sampleTracer().Snapshot()
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("equal traces marshaled to different bytes")
	}
	first := a.Bytes()[:bytes.IndexByte(a.Bytes(), '\n')]
	if !bytes.HasPrefix(first, []byte(`{"seq":`)) {
		t.Errorf("field order changed: first line %s", first)
	}
}

// TestReadJSONLConcatenatedSegments mirrors cmd/monitor's per-window
// drain: several WriteJSONL outputs appended to one file decode as one
// event stream.
func TestReadJSONLConcatenatedSegments(t *testing.T) {
	tr := New(8)
	var buf bytes.Buffer
	tr.Filter(set("0=1"), "kept", 1)
	if err := WriteJSONL(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	tr.Filter(set("0=2"), "redundant", 2)
	tr.Filter(set("0=3"), "kept", 3)
	if err := WriteJSONL(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(back.Events))
	}
	if back.Events[0].Key() != "0=1" || back.Events[2].Key() != "0=3" {
		t.Errorf("segment order broken: %+v", back.Events)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON must error")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"seq":1,"ts_ns":0,"kind":"nope"}` + "\n")); err == nil {
		t.Error("unknown kind must error")
	}
	long := `{"seq":1,"ts_ns":0,"kind":"node","counts":[1,2,3,4,5,6,7,8,9]}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(long)); err == nil {
		t.Error("oversized counts must error")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"seq":1,"ts_ns":0,"kind":"node","key":"a"}` + "\n")); err == nil {
		t.Error("a key that does not parse must error")
	}
}

func TestWriteChromeValidFormat(t *testing.T) {
	snap := sampleTracer().Snapshot()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, snap); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("Chrome export is not a JSON array: %v", err)
	}
	// 2 metadata events + one entry per trace event.
	if len(events) != len(snap.Events)+2 {
		t.Fatalf("got %d chrome events, want %d", len(events), len(snap.Events)+2)
	}
	if events[0]["ph"] != "M" || events[0]["name"] != "process_name" {
		t.Errorf("missing process_name metadata: %v", events[0])
	}
	if events[1]["ph"] != "M" || events[1]["name"] != "thread_name" {
		t.Errorf("missing thread_name metadata: %v", events[1])
	}
	spans, instants := 0, 0
	for _, e := range events[2:] {
		for _, f := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[f]; !ok {
				t.Fatalf("chrome event missing %q: %v", f, e)
			}
		}
		switch e["ph"] {
		case "X":
			spans++
			if d, ok := e["dur"].(float64); !ok || d <= 0 {
				t.Errorf("span without positive dur: %v", e)
			}
		case "i":
			instants++
			if e["s"] != "t" {
				t.Errorf("instant without thread scope: %v", e)
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	// sampleTracer emits 3 span kinds (sdad, level, remine); the rest are
	// instants.
	if spans != 3 || instants != len(snap.Events)-3 {
		t.Errorf("got %d spans, %d instants; want 3, %d", spans, instants, len(snap.Events)-3)
	}
}

// TestChromeWorkerBecomesTID pins the pid/tid mapping: every event lands
// in pid 1 with tid = worker index.
func TestChromeWorkerBecomesTID(t *testing.T) {
	tr := New(8)
	tr.Node(1, 3, set("0=1"), 5, nil)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	e := events[len(events)-1]
	if e["pid"] != float64(chromePID) || e["tid"] != float64(3) {
		t.Errorf("pid/tid = %v/%v, want %d/3", e["pid"], e["tid"], chromePID)
	}
}
