package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// snapshotGoldenPath pins the JSON bytes of a fully populated snapshot.
// internal/obs renders its miner-family golden from the same file.
const snapshotGoldenPath = "testdata/snapshot.golden.json"

// populated returns a zero-start recorder (uptime 0) in which every
// plain counter holds a distinct non-zero value, every prune rule fired a
// distinct number of times, and the levels, histogram, threshold, re-mine
// timer and trace volume all carry observations.
func populated() *Recorder {
	r := &Recorder{}
	for c := Counter(0); c < NumCounters; c++ {
		r.Add(c, 11+int(c))
	}
	for rule := PruneRule(0); rule < numPruneRules; rule++ {
		for i := 0; i <= int(rule); i++ {
			r.PruneHit(rule)
		}
	}
	r.LevelObserve(1, 57, 31, 12, 2, 1830021*time.Nanosecond)
	r.LevelObserve(2, 200, 40, 9, 2, 5*time.Millisecond)
	r.NodeEval(1, 900*time.Nanosecond)
	r.NodeEval(2, 3*time.Microsecond)
	r.NodeEval(2, 70*time.Microsecond)
	r.ThresholdUpdate(0.25)
	r.ThresholdUpdate(0.4183)
	r.RemineObserve(7 * time.Millisecond)
	r.RemineObserve(3 * time.Millisecond)
	r.TraceVolume(321, 4, 64)
	return r
}

// TestSnapshotJSONGolden: the snapshot JSON is a compatibility surface
// (cmd/contrast -metrics, cmd/monitor /metrics, /v1/metrics "active",
// perfbench), so its bytes are pinned. Regenerate with -update only for a
// documented break.
func TestSnapshotJSONGolden(t *testing.T) {
	got, err := json.Marshal(populated().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(snapshotGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(snapshotGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot JSON drifted from %s:\n got  %s want %s", snapshotGoldenPath, got, want)
	}
}

// TestCounterDescriptors: every counter has a unique name and help text,
// and its accessor points at the Snapshot field with that JSON name.
func TestCounterDescriptors(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() == "" || c.Help() == "" || seen[c.String()] {
			t.Errorf("counter %d: name %q, help %q (duplicate: %v)", c, c.String(), c.Help(), seen[c.String()])
		}
		seen[c.String()] = true
		r := &Recorder{}
		r.Add(c, 7)
		raw, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		if got := string(fields[c.String()]); got != "7" {
			t.Errorf("counter %s: JSON field %q = %q, want 7", c, c.String(), got)
		}
	}
}

// TestSnapshotMerge: merging a snapshot twice into an empty one doubles
// every total and keeps the extremes and the latest threshold.
func TestSnapshotMerge(t *testing.T) {
	one := populated().Snapshot()
	var sum Snapshot
	sum.Merge(Snapshot{})
	sum.Merge(one)
	sum.Merge(one)
	for c := Counter(0); c < NumCounters; c++ {
		if sum.Counter(c) != 2*one.Counter(c) {
			t.Errorf("%s = %d, want %d", c, sum.Counter(c), 2*one.Counter(c))
		}
	}
	if sum.TotalPruned() != 2*one.TotalPruned() || len(sum.Prune) != len(one.Prune) {
		t.Errorf("prune = %+v, want each of %+v doubled", sum.Prune, one.Prune)
	}
	for i, lv := range one.Levels {
		want := LevelSnapshot{Level: lv.Level, Nodes: 2 * lv.Nodes, Survivors: 2 * lv.Survivors,
			Contrasts: 2 * lv.Contrasts, WallNanos: 2 * lv.WallNanos, EvalNanos: 2 * lv.EvalNanos, Workers: lv.Workers}
		if sum.Levels[i] != want {
			t.Errorf("level %d = %+v, want %+v", lv.Level, sum.Levels[i], want)
		}
	}
	if sum.NodeEval.Count != 2*one.NodeEval.Count || len(sum.NodeEval.Buckets) != len(one.NodeEval.Buckets) {
		t.Errorf("node_eval = %+v, want %+v doubled", sum.NodeEval, one.NodeEval)
	}
	for i, b := range one.NodeEval.Buckets {
		if got := sum.NodeEval.Buckets[i]; got.LoNanos != b.LoNanos || got.Count != 2*b.Count {
			t.Errorf("bucket %d = %+v, want %+v doubled", i, got, b)
		}
	}
	wantRemine := TimerSnapshot{Count: 2 * one.Remine.Count, TotalNanos: 2 * one.Remine.TotalNanos,
		MinNanos: one.Remine.MinNanos, MaxNanos: one.Remine.MaxNanos}
	if sum.Remine != wantRemine {
		t.Errorf("remine = %+v, want %+v", sum.Remine, wantRemine)
	}
	if sum.Threshold != one.Threshold || sum.ThresholdUpdates != 2*one.ThresholdUpdates ||
		sum.TraceEvents != 2*one.TraceEvents || sum.TraceHighWater != one.TraceHighWater {
		t.Errorf("threshold/trace totals wrong: %+v", sum)
	}
}

// TestReadmeListsEveryCounter: README's snapshot field list names every
// counter, so a counter added to the table cannot go undocumented.
func TestReadmeListsEveryCounter(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const start = "The same recorder threads through the whole pipeline"
	i := bytes.Index(raw, []byte(start))
	if i < 0 {
		t.Fatalf("README has no field list starting %q", start)
	}
	list := raw[i:]
	if j := bytes.Index(list, []byte("\n\n")); j >= 0 {
		list = list[:j]
	}
	for c := Counter(0); c < NumCounters; c++ {
		if !bytes.Contains(list, []byte("`"+c.String()+"`")) {
			t.Errorf("README field list does not name %q", c.String())
		}
	}
}
