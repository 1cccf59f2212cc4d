// Package serve is the long-lived mining service: a dataset registry that
// parses CSVs and builds bitmap indexes once, an async job manager with a
// bounded worker pool and per-job deadlines, a result cache with
// singleflight deduplication, and the HTTP JSON API tying them together
// (cmd/serve). It is the deployment shape of the paper's §6 production
// story — index build and scan dominate per-query cost, so a shared
// service amortizes them across requests the way Facebook's continuous
// contrast-set-mining deployment does.
package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"sdadcs/internal/dataset"
	"sdadcs/internal/obs"
	"sdadcs/internal/store"
)

// DatasetInfo is the registry's public record of one dataset.
type DatasetInfo struct {
	// ID is the content-hash address: "ds_" + 16 hex bytes of the SHA-256
	// over the CSV bytes and the parse options. Registering the same bytes
	// twice yields the same ID (and reuses the parsed dataset).
	ID string `json:"id"`
	// Name is the caller-supplied display name.
	Name string `json:"name"`
	// Rows, Attrs, Groups describe the parsed table.
	Rows   int      `json:"rows"`
	Attrs  int      `json:"attrs"`
	Groups []string `json:"groups"`
	// RegisteredAt is the first registration time.
	RegisteredAt time.Time `json:"registered_at"`
}

// dsEntry is one registry slot.
type dsEntry struct {
	info DatasetInfo
	ds   *dataset.Dataset
	// pins counts jobs currently holding the dataset (queued or running).
	// Pinned entries are never evicted, so a mine in flight keeps its
	// dataset addressable for result rendering and explain queries.
	pins int
	elem *list.Element // position in the LRU order; nil while cold
	// cold marks a demoted entry: the dataset lives only in the attached
	// store's segments (ds == nil), costs no rows against the budget, and
	// is reloaded on demand by Acquire/Get. With no store attached, cold
	// entries never exist — eviction deletes outright, as before.
	cold bool
}

// Registry holds parsed datasets, content-hash addressed and LRU-bounded
// by a total row budget. Reads are concurrent-safe. Because datasets carry
// their bitmap index in a content-hash-keyed cache slot (dataset.Index),
// the registry also amortizes index construction: the first Mine against a
// dataset builds the index once, and every later job on the same content
// hash reuses it. Eviction drops the cached index along with the dataset
// so the row budget actually bounds memory.
type Registry struct {
	mu        sync.Mutex
	log       *slog.Logger
	budget    int // max total rows across entries; 0 = unbounded
	totalRows int
	entries   map[string]*dsEntry
	order     *list.List // front = most recently used
	evictions int64
	// indexEvictions counts evicted entries that held a built bitmap
	// index; indexBuildsEvicted accumulates their lifetime build counts so
	// IndexStats can report total builds across live and evicted entries.
	indexEvictions     int64
	indexBuildsEvicted int64
	// store, when attached, is the persistence backend: registrations are
	// written through to it, eviction demotes to the cold tier instead of
	// deleting, and a restart rehydrates cold entries from its manifest.
	store      *store.Store
	demotions  int64
	promotions int64
}

// NewRegistry builds a registry evicting least-recently-used datasets once
// the sum of registered rows exceeds rowBudget (0 = unbounded).
func NewRegistry(rowBudget int) *Registry {
	return &Registry{
		log:     obs.Nop(),
		budget:  rowBudget,
		entries: make(map[string]*dsEntry),
		order:   list.New(),
	}
}

// SetLogger attaches the structured log for registration and eviction
// events. Call before serving; nil restores the no-op logger.
func (r *Registry) SetLogger(log *slog.Logger) {
	r.mu.Lock()
	r.log = obs.Or(log)
	r.mu.Unlock()
}

// SetStore attaches the persistence backend and rehydrates: every dataset
// in the store's manifest appears as a cold registry entry, addressable
// under the same content hash it had before the restart — no re-upload
// needed. Call before serving.
func (r *Registry) SetStore(st *store.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = st
	for _, m := range st.List() {
		if _, ok := r.entries[m.ID]; ok {
			continue
		}
		r.entries[m.ID] = &dsEntry{
			info: DatasetInfo{
				ID:           m.ID,
				Name:         m.Name,
				Rows:         m.Rows,
				Attrs:        m.Attrs,
				Groups:       m.Groups,
				RegisteredAt: m.RegisteredAt,
			},
			cold: true,
		}
	}
	r.log.Info("registry rehydrated from store", "datasets", len(r.entries))
}

// ColdStats reports the cold-tier lifecycle: how many entries currently
// live only on disk, how many evictions became demotions, and how many
// cold entries were promoted back by demand.
func (r *Registry) ColdStats() (cold int, demotions, promotions int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.cold {
			cold++
		}
	}
	return cold, r.demotions, r.promotions
}

// hashDataset derives the content address from the parse-relevant inputs.
func hashDataset(csvData []byte, groupColumn string, forceCategorical []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "group=%s;", groupColumn)
	forced := append([]string(nil), forceCategorical...)
	sort.Strings(forced)
	for _, f := range forced {
		fmt.Fprintf(h, "cat=%s;", f)
	}
	h.Write(csvData)
	return "ds_" + hex.EncodeToString(h.Sum(nil)[:16])
}

// Register parses a CSV and stores the dataset under its content hash.
// Re-registering identical content is idempotent: the existing entry is
// touched (LRU) and returned without re-parsing. The new entry is exempt
// from its own eviction round, so a single dataset larger than the budget
// still registers (and is evicted only when something else arrives).
func (r *Registry) Register(name string, csvData []byte, groupColumn string, forceCategorical []string) (DatasetInfo, error) {
	id := hashDataset(csvData, groupColumn, forceCategorical)

	r.mu.Lock()
	if e, ok := r.entries[id]; ok {
		// A cold entry has no LRU position to touch; its content is already
		// durable, so re-registration is idempotent without promotion.
		if !e.cold {
			r.order.MoveToFront(e.elem)
		}
		info := e.info
		r.mu.Unlock()
		return info, nil
	}
	st := r.store
	r.mu.Unlock()

	// Parse outside the lock: CSV building is the expensive part and must
	// not serialize readers. A racing duplicate registration parses twice
	// and keeps the first entry — wasteful but correct, and only possible
	// for concurrent uploads of identical bytes.
	if name == "" {
		name = "csv"
	}
	d, err := dataset.FromCSV(bytes.NewReader(csvData), dataset.CSVOptions{
		GroupColumn:      groupColumn,
		ForceCategorical: forceCategorical,
		Name:             name,
	})
	if err != nil {
		return DatasetInfo{}, err
	}
	groups := make([]string, d.NumGroups())
	for g := range groups {
		groups[g] = d.GroupName(g)
	}
	info := DatasetInfo{
		ID:           id,
		Name:         name,
		Rows:         d.Rows(),
		Attrs:        d.NumAttrs(),
		Groups:       groups,
		RegisteredAt: time.Now().UTC(),
	}

	// Persist before the entry becomes visible: a registration the caller
	// saw succeed must survive a crash. Put is idempotent by ID, so a
	// racing duplicate writes the same segments twice at worst.
	if st != nil {
		err := st.Put(d, store.Meta{
			ID:               id,
			Name:             name,
			GroupColumn:      groupColumn,
			ForceCategorical: forceCategorical,
			RegisteredAt:     info.RegisteredAt,
		})
		if err != nil {
			return DatasetInfo{}, fmt.Errorf("serve: persisting dataset: %w", err)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok { // lost the race: keep the first
		if !e.cold {
			r.order.MoveToFront(e.elem)
		}
		return e.info, nil
	}
	e := &dsEntry{info: info, ds: d}
	e.elem = r.order.PushFront(id)
	r.entries[id] = e
	r.totalRows += info.Rows
	r.log.Info("dataset registered",
		"dataset_id", id,
		"name", name,
		"rows", info.Rows,
		"attrs", info.Attrs,
		"total_rows", r.totalRows)
	r.evictLocked(id)
	return info, nil
}

// evictLocked reclaims least-recently-used, unpinned entries until the
// row budget holds again; keep is never touched. Without a store the
// victim is deleted outright, as always. With a store attached the victim
// is *demoted* instead: its dataset (already durable on disk from
// registration) and bitmap index are released, but the entry stays
// addressable as a cold-tier record that Acquire/Get reload on demand —
// eviction stops losing data, it only sheds memory.
func (r *Registry) evictLocked(keep string) {
	if r.budget <= 0 {
		return
	}
	for r.totalRows > r.budget {
		var victim *dsEntry
		for el := r.order.Back(); el != nil; el = el.Prev() {
			id := el.Value.(string)
			if id == keep {
				continue
			}
			if e := r.entries[id]; e.pins == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return // everything else pinned or only the newcomer left
		}
		r.order.Remove(victim.elem)
		r.totalRows -= victim.info.Rows
		r.evictions++
		// Drop the attached bitmap index with the dataset: completed jobs
		// may still reference the *Dataset for explain rendering, so the
		// index is the part of the memory we can reclaim deterministically.
		droppedIndex := victim.ds.Index().Drop()
		if droppedIndex {
			r.indexEvictions++
			r.indexBuildsEvicted += victim.ds.Index().Builds()
		}
		onDisk := false
		if r.store != nil {
			_, onDisk = r.store.Get(victim.info.ID)
		}
		if onDisk {
			victim.ds = nil
			victim.elem = nil
			victim.cold = true
			r.demotions++
			r.log.Info("dataset demoted to cold tier",
				"dataset_id", victim.info.ID,
				"rows", victim.info.Rows,
				"dropped_index", droppedIndex,
				"total_rows", r.totalRows)
			continue
		}
		delete(r.entries, victim.info.ID)
		r.log.Info("dataset evicted",
			"dataset_id", victim.info.ID,
			"rows", victim.info.Rows,
			"dropped_index", droppedIndex,
			"total_rows", r.totalRows)
	}
}

// hotEntry returns the entry for id with its dataset resident, promoting
// it from the cold tier when necessary. On ok the registry lock is HELD
// (the caller touches LRU/pins, then unlocks); on !ok it is released. The
// cold load runs outside the lock — segment decoding is the expensive
// part — with a re-check afterwards: a racing promoter's entry wins, and
// the loser's decode is discarded.
func (r *Registry) hotEntry(id string) (*dsEntry, bool) {
	r.mu.Lock()
	for {
		e, ok := r.entries[id]
		if !ok {
			r.mu.Unlock()
			return nil, false
		}
		if !e.cold {
			return e, true
		}
		st := r.store
		r.mu.Unlock()
		d, _, err := st.Load(id)
		r.mu.Lock()
		if err != nil {
			// A corrupt segment was quarantined by the store; forget the
			// cold entry so the miss is stable rather than a retry loop.
			if e2, ok := r.entries[id]; ok && e2.cold {
				delete(r.entries, id)
			}
			r.log.Warn("cold dataset load failed",
				"dataset_id", id, "error", err.Error())
			r.mu.Unlock()
			return nil, false
		}
		e2, ok := r.entries[id]
		if !ok {
			r.mu.Unlock()
			return nil, false
		}
		if !e2.cold {
			return e2, true // lost the promotion race: use the winner's copy
		}
		e2.ds = d
		e2.cold = false
		e2.elem = r.order.PushFront(id)
		r.totalRows += e2.info.Rows
		r.promotions++
		r.log.Info("dataset promoted from cold tier",
			"dataset_id", id, "rows", e2.info.Rows, "total_rows", r.totalRows)
		r.evictLocked(id)
		return e2, true
	}
}

// Acquire returns the dataset and pins it against eviction; the returned
// release function must be called exactly once when the caller (a job) is
// finished with it.
func (r *Registry) Acquire(id string) (*dataset.Dataset, DatasetInfo, func(), bool) {
	e, ok := r.hotEntry(id)
	if !ok {
		return nil, DatasetInfo{}, nil, false
	}
	defer r.mu.Unlock()
	r.order.MoveToFront(e.elem)
	e.pins++
	var once sync.Once
	release := func() {
		once.Do(func() {
			r.mu.Lock()
			e.pins--
			r.mu.Unlock()
		})
	}
	return e.ds, e.info, release, true
}

// Get returns the dataset without pinning (read-only peek; touches LRU).
func (r *Registry) Get(id string) (*dataset.Dataset, DatasetInfo, bool) {
	e, ok := r.hotEntry(id)
	if !ok {
		return nil, DatasetInfo{}, false
	}
	defer r.mu.Unlock()
	r.order.MoveToFront(e.elem)
	return e.ds, e.info, true
}

// List returns the registered datasets: hot entries most recently used
// first, then cold-tier entries by registration time (a deterministic
// order — cold entries have no LRU position).
func (r *Registry) List() []DatasetInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DatasetInfo, 0, len(r.entries))
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, r.entries[el.Value.(string)].info)
	}
	var cold []DatasetInfo
	for _, e := range r.entries {
		if e.cold {
			cold = append(cold, e.info)
		}
	}
	sort.Slice(cold, func(i, j int) bool {
		if !cold[i].RegisteredAt.Equal(cold[j].RegisteredAt) {
			return cold[i].RegisteredAt.Before(cold[j].RegisteredAt)
		}
		return cold[i].ID < cold[j].ID
	})
	return append(out, cold...)
}

// Stats reports the registry occupancy.
func (r *Registry) Stats() (entries, totalRows int, evictions int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries), r.totalRows, r.evictions
}

// IndexStats reports the cached-index lifecycle across the registry:
// cached is the number of live entries currently holding a built bitmap
// index, builds is the lifetime index-build count over live AND evicted
// entries (builds == number of distinct dataset hashes indexed, as long as
// nothing was evicted and re-registered), and evictions counts indexes
// dropped by LRU eviction.
func (r *Registry) IndexStats() (cached int, builds, evictions int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	builds = r.indexBuildsEvicted
	for _, e := range r.entries {
		if e.cold {
			continue // no dataset resident, no index
		}
		ix := e.ds.Index()
		if ix.Loaded() {
			cached++
		}
		builds += ix.Builds()
	}
	return cached, builds, r.indexEvictions
}
