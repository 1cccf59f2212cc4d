package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdadcs/internal/obs"
	"sdadcs/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestRegistrySurvivesRestart is the tentpole's registry guarantee: a
// dataset registered against one store is addressable — same content
// hash, same listing, same parsed content — from a fresh registry opened
// over the same directory, without re-uploading anything.
func TestRegistrySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	csv := csvRows(12, "persist")

	st := openStore(t, dir)
	r := NewRegistry(0)
	r.SetStore(st)
	info, err := r.Register("mill", csv, "g", nil)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	d1, _, ok := r.Get(info.ID)
	if !ok {
		t.Fatal("Get after register")
	}
	st.Close()

	st2 := openStore(t, dir)
	r2 := NewRegistry(0)
	r2.SetStore(st2)
	list := r2.List()
	if len(list) != 1 || list[0].ID != info.ID || list[0].Name != "mill" || list[0].Rows != 12 {
		t.Fatalf("List after restart: %+v", list)
	}
	d2, info2, release, ok := r2.Acquire(info.ID)
	if !ok {
		t.Fatal("Acquire after restart")
	}
	defer release()
	if info2.ID != info.ID || d2.Rows() != d1.Rows() || d2.NumAttrs() != d1.NumAttrs() {
		t.Fatalf("rehydrated dataset differs: %+v", info2)
	}
	for r := 0; r < d1.Rows(); r++ {
		for a := 0; a < d1.NumAttrs(); a++ {
			if d1.Attr(a).Kind != d2.Attr(a).Kind {
				t.Fatalf("attr %d kind changed", a)
			}
		}
		if d1.Group(r) != d2.Group(r) {
			t.Fatalf("group row %d differs after restart", r)
		}
	}
	if _, _, promotions := r2.ColdStats(); promotions != 1 {
		t.Fatalf("promotions = %d, want 1", promotions)
	}
}

// TestEvictionDemotesToColdTier: with a store attached, LRU eviction
// becomes demotion — the entry stays listed and Acquire reloads it from
// disk, bumping the store's cold-load counter.
func TestEvictionDemotesToColdTier(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r := NewRegistry(25) // room for two 10-row datasets, not three
	r.SetStore(st)

	a, _ := r.Register("a", csvRows(10, "a"), "g", nil)
	b, _ := r.Register("b", csvRows(10, "b"), "g", nil)
	c, _ := r.Register("c", csvRows(10, "c"), "g", nil) // demotes a

	cold, demotions, _ := r.ColdStats()
	if cold != 1 || demotions != 1 {
		t.Fatalf("cold=%d demotions=%d, want 1/1", cold, demotions)
	}
	if len(r.List()) != 3 {
		t.Fatalf("demotion dropped a listing: %+v", r.List())
	}
	if entries, rows, evictions := r.Stats(); entries != 3 || rows != 20 || evictions != 1 {
		t.Fatalf("Stats after demotion: %d entries %d rows %d evictions", entries, rows, evictions)
	}

	// Demand promotes it back — and demotes the new LRU victim (b).
	ds, _, release, ok := r.Acquire(a.ID)
	if !ok || ds == nil {
		t.Fatal("Acquire of demoted dataset failed")
	}
	release()
	if st.Health().ColdLoads != 1 {
		t.Fatalf("cold loads = %d, want 1", st.Health().ColdLoads)
	}
	cold, demotions, promotions := r.ColdStats()
	if cold != 1 || demotions != 2 || promotions != 1 {
		t.Fatalf("after promotion: cold=%d demotions=%d promotions=%d", cold, demotions, promotions)
	}
	if _, _, ok := r.Get(b.ID); !ok {
		t.Fatal("b not addressable after its demotion")
	}
	_ = c
}

// TestPinsBlockDemotion: a pinned (in-flight) dataset is never demoted,
// exactly as it was never evicted.
func TestPinsBlockDemotion(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r := NewRegistry(25)
	r.SetStore(st)

	a, _ := r.Register("a", csvRows(10, "a"), "g", nil)
	_, _, release, ok := r.Acquire(a.ID)
	if !ok {
		t.Fatal("Acquire")
	}
	r.Register("b", csvRows(10, "b"), "g", nil)
	r.Register("c", csvRows(10, "c"), "g", nil) // would demote a, but it is pinned

	if ds, _, ok := r.Get(a.ID); !ok || ds == nil {
		t.Fatal("pinned dataset was demoted")
	}
	if cold, _, _ := r.ColdStats(); cold == 0 {
		t.Fatal("nothing was demoted at all — budget not enforced")
	}
	release()
}

// TestCorruptColdLoadIs404: a quarantined cold dataset disappears from
// the registry instead of wedging it — Acquire reports a stable miss.
func TestCorruptColdLoadIs404(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r := NewRegistry(0)
	r.SetStore(st)
	info, err := r.Register("x", csvRows(10, "x"), "g", nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Corrupt the segment on disk, then restart.
	seg := filepath.Join(dir, info.ID+".seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	r2 := NewRegistry(0)
	r2.SetStore(st2)
	if len(r2.List()) != 1 {
		t.Fatalf("List before load: %+v", r2.List())
	}
	if _, _, _, ok := r2.Acquire(info.ID); ok {
		t.Fatal("Acquire of corrupt dataset succeeded")
	}
	if _, _, _, ok := r2.Acquire(info.ID); ok {
		t.Fatal("second Acquire resurrected the corrupt dataset")
	}
	if len(r2.List()) != 0 {
		t.Fatalf("corrupt dataset still listed: %+v", r2.List())
	}
	if st2.Health().CorruptSegments != 1 {
		t.Fatalf("corrupt segments = %d", st2.Health().CorruptSegments)
	}
}

// TestServeRestartChoreography is the end-to-end restart story over the
// HTTP API: register, mine, shut down, restart on the same data dir —
// the dataset is listed without re-upload and an identical job submission
// produces a byte-identical /result payload.
func TestServeRestartChoreography(t *testing.T) {
	dir := t.TempDir()
	jobReq := func(ds string) map[string]any {
		return map[string]any{"dataset_id": ds, "config": map[string]any{"max_depth": 2}}
	}

	st := openStore(t, dir)
	_, c := newTestServer(t, Options{Workers: 2, Store: st})
	dsID := c.register(smallCSV)
	jst, code, body := c.submit(jobReq(dsID))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	c.waitState(jst.ID, JobDone, 20*time.Second)
	code, result1 := c.do("GET", "/v1/jobs/"+jst.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	st.Close() // server teardown happens via t.Cleanup later; store closes now

	st2 := openStore(t, dir)
	_, c2 := newTestServer(t, Options{Workers: 2, Store: st2})

	// The dataset survived the restart — listed without re-upload.
	code, listing := c2.do("GET", "/v1/datasets", nil)
	if code != http.StatusOK || !strings.Contains(string(listing), dsID) {
		t.Fatalf("dataset %s not listed after restart: %d %s", dsID, code, listing)
	}
	// Same job on the rehydrated dataset: byte-identical result.
	jst2, code, body := c2.submit(jobReq(dsID))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", code, body)
	}
	c2.waitState(jst2.ID, JobDone, 20*time.Second)
	code, result2 := c2.do("GET", "/v1/jobs/"+jst2.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result after restart: %d", code)
	}
	if string(result1) != string(result2) {
		t.Fatalf("results differ across restart:\n%s\nvs\n%s", result1, result2)
	}
}

// TestMetricsJSONByteCompatWithoutStore pins the compatibility guarantee:
// with no store attached, the /v1/metrics JSON must not grow a "store"
// key (the whole struct marshals exactly as before this feature).
func TestMetricsJSONByteCompatWithoutStore(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	code, body := c.do("GET", "/v1/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["store"]; ok {
		t.Fatalf("store key present without a store attached:\n%s", body)
	}
}

// TestStoreMetricsExposed: with a store attached, the store health series
// appear in both the JSON payload and a promlint-clean Prometheus
// exposition with HELP/TYPE headers.
func TestStoreMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	_, c := newTestServer(t, Options{Workers: 1, Store: st})
	c.register(smallCSV)

	m := c.metrics()
	if m.Store == nil {
		t.Fatal("JSON metrics missing store block")
	}
	if m.Store.WALAppends == 0 || m.Store.WALFsyncs == 0 || m.Store.DatasetsOnDisk != 1 {
		t.Fatalf("store health: %+v", m.Store)
	}

	code, page := c.do("GET", "/metrics/prometheus", nil)
	if code != http.StatusOK {
		t.Fatalf("prometheus: %d", code)
	}
	if err := obs.LintExposition(page); err != nil {
		t.Fatalf("exposition fails strict parse: %v\n%s", err, page)
	}
	text := string(page)
	for _, want := range []string{
		"sdadcs_store_wal_appends_total",
		"sdadcs_store_wal_fsyncs_total",
		"sdadcs_store_checkpoints_total",
		"sdadcs_store_recoveries_total",
		"sdadcs_store_cold_loads_total",
		"sdadcs_store_corrupt_segments_total",
		"# HELP sdadcs_store_wal_appends_total",
		"# TYPE sdadcs_store_wal_appends_total counter",
		"sdadcs_store_datasets_on_disk 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Without a store, none of the sdadcs_store_* series exist.
	_, cNo := newTestServer(t, Options{Workers: 1})
	_, pageNo := cNo.do("GET", "/metrics/prometheus", nil)
	if strings.Contains(string(pageNo), "sdadcs_store_") {
		t.Fatal("store series exposed without a store attached")
	}
}
