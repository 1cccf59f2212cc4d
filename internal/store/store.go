package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"sdadcs/internal/dataset"
	"sdadcs/internal/obs"
)

const (
	manifestName  = "MANIFEST.json"
	walName       = "wal.log"
	quarantineDir = "quarantine"
	segSuffix     = ".seg"

	// defaultCheckpointEvery bounds WAL growth: after this many records a
	// checkpoint writes the manifest and truncates the log.
	defaultCheckpointEvery = 1024
)

// Options configures a Store.
type Options struct {
	// CheckpointEvery is the WAL record count that triggers an automatic
	// checkpoint; 0 means the default (1024), negative disables automatic
	// checkpoints (tests drive Checkpoint explicitly).
	CheckpointEvery int
	// Logger receives recovery and quarantine events; nil means silent.
	Logger *slog.Logger
}

// Health is a snapshot of the store's durability counters — the
// store_* series the serving layer exposes in /v1/metrics and the
// Prometheus exposition.
type Health struct {
	WALAppends      uint64 `json:"wal_appends_total"`
	WALFsyncs       uint64 `json:"wal_fsyncs_total"`
	Checkpoints     uint64 `json:"checkpoints_total"`
	Recoveries      uint64 `json:"recoveries_total"`
	ColdLoads       uint64 `json:"cold_loads_total"`
	CorruptSegments uint64 `json:"corrupt_segments_total"`
	Datasets        int    `json:"datasets"`
}

// manifest is the checkpointed registry state.
type manifest struct {
	Version  int    `json:"version"`
	Datasets []Meta `json:"datasets"`
}

// Store is a directory of columnar dataset segments fronted by a WAL. It
// is safe for concurrent use; segment encoding/decoding happens outside
// the lock where possible, but WAL appends and metadata mutations are
// serialized.
type Store struct {
	dir  string
	opts Options
	log  *slog.Logger

	mu    sync.Mutex
	wal   *wal
	metas map[string]Meta
	order []string // registration order, for stable List
	// writing counts the Puts of each ID that are writing its segment
	// outside the lock; the checkpoint's orphan sweep spares those files.
	writing map[string]int
	closed  bool

	walAppends      atomic.Uint64
	walFsyncs       atomic.Uint64
	checkpoints     atomic.Uint64
	recoveries      atomic.Uint64
	coldLoads       atomic.Uint64
	corruptSegments atomic.Uint64
}

// Open opens (creating if necessary) the store at dir and runs recovery:
// leftover *.tmp files from an interrupted checkpoint are removed, the
// manifest is loaded, and the WAL is replayed with a torn tail truncated.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = defaultCheckpointEvery
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		log:     obs.Or(opts.Logger),
		metas:   make(map[string]Meta),
		writing: make(map[string]int),
	}

	// A checkpoint that died before its atomic rename leaves *.tmp files;
	// they were never referenced, so recovery deletes them.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, t := range tmps {
		if err := os.Remove(t); err != nil {
			return nil, fmt.Errorf("store: removing leftover %s: %w", t, err)
		}
		s.log.Info("store: removed interrupted checkpoint temp file", "path", t)
	}

	hadState := false
	mdata, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		hadState = true
		var m manifest
		if err := json.Unmarshal(mdata, &m); err != nil {
			return nil, fmt.Errorf("store: parsing manifest: %w", err)
		}
		for _, meta := range m.Datasets {
			s.metas[meta.ID] = meta
			s.order = append(s.order, meta.ID)
		}
	case errors.Is(err, os.ErrNotExist):
		// Fresh store.
	default:
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}

	recs, truncated, err := replayWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	if truncated {
		s.log.Warn("store: truncated torn wal tail", "dir", dir)
	}
	if len(recs) > 0 || truncated {
		hadState = true
	}
	for _, rec := range recs {
		if err := s.applyRecord(rec); err != nil {
			return nil, err
		}
	}
	s.wal, err = openWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	s.wal.records = len(recs)
	if hadState {
		s.recoveries.Add(1)
		s.log.Info("store: recovered", "dir", dir,
			"datasets", len(s.metas), "wal_records", len(recs), "torn_tail", truncated)
	}
	return s, nil
}

// applyRecord folds one replayed WAL record into the in-memory state.
func (s *Store) applyRecord(rec walRecord) error {
	switch rec.typ {
	case recRegister:
		var m Meta
		if err := json.Unmarshal(rec.payload, &m); err != nil {
			return corrupt("", "register record JSON: %v", err)
		}
		if _, ok := s.metas[m.ID]; !ok {
			s.order = append(s.order, m.ID)
		}
		s.metas[m.ID] = m
	case recDelete:
		s.removeMetaLocked(string(rec.payload))
	default:
		return corrupt("", "unknown wal record type %d", rec.typ)
	}
	return nil
}

func (s *Store) removeMetaLocked(id string) {
	if _, ok := s.metas[id]; !ok {
		return
	}
	delete(s.metas, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *Store) segPath(id string) string { return filepath.Join(s.dir, id+segSuffix) }

// Put persists a dataset: the segment file is written, fsynced, and
// atomically renamed into place before the WAL register record is
// appended, so a register record always refers to durable segments. Put
// is idempotent by ID (content-hash addressing makes re-registration of
// the same bytes a no-op).
func (s *Store) Put(d *dataset.Dataset, m Meta) error {
	if m.ID == "" {
		return errors.New("store: Put with empty ID")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	if _, ok := s.metas[m.ID]; ok {
		s.mu.Unlock()
		return nil
	}
	s.writing[m.ID]++
	s.mu.Unlock()

	// Encode and write the segment outside the lock — it is the expensive
	// part, and the final visibility check under the lock keeps Put
	// idempotent even when two calls race on the same ID.
	m = metaFor(d, m)
	werr := s.writeFile(m.ID+segSuffix, EncodeSegments(d, m))
	mj, err := json.Marshal(m)
	s.mu.Lock()
	defer s.mu.Unlock()
	// The segment is registered below or left an orphan in this critical
	// section, so no sweep can see it unregistered and unclaimed.
	if s.writing[m.ID]--; s.writing[m.ID] == 0 {
		delete(s.writing, m.ID)
	}
	if werr != nil {
		return werr
	}
	if err != nil {
		return fmt.Errorf("store: encoding meta: %w", err)
	}
	if s.closed {
		return errors.New("store: closed")
	}
	if _, ok := s.metas[m.ID]; ok {
		return nil
	}
	if err := s.walAppend(recRegister, mj); err != nil {
		return err
	}
	s.metas[m.ID] = m
	s.order = append(s.order, m.ID)
	return s.maybeCheckpointLocked()
}

// walAppend logs one record and counts the append and its fsync. Called
// with s.mu held.
func (s *Store) walAppend(typ byte, payload []byte) error {
	if err := s.wal.append(typ, payload); err != nil {
		return err
	}
	s.walAppends.Add(1)
	s.walFsyncs.Add(1)
	return nil
}

// writeFile makes data durable as <dir>/<name>: it writes a temp file,
// fsyncs it, renames it into place and fsyncs the directory. Any failure
// removes the temp file and leaves the previous <name> as it was. Each
// call writes its own temp file, <name>.<random>.tmp, so concurrent
// writers of one name (two Puts of one ID) never share it; Open's *.tmp
// sweep removes the leftovers of a crash.
func (s *Store) writeFile(name string, data []byte) error {
	path := filepath.Join(s.dir, name)
	f, err := os.CreateTemp(s.dir, name+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", name, err)
	}
	tmp := f.Name()
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: creating %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: fsyncing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing %s: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: renaming %s: %w", name, err)
	}
	return syncDir(s.dir)
}

// Load reads a dataset back from its segments. A segment that fails its
// CRC (or any other integrity check) is moved to quarantine/, forgotten,
// and reported as a *CorruptError — the store keeps serving everything
// else.
func (s *Store) Load(id string) (*dataset.Dataset, Meta, error) {
	s.mu.Lock()
	m, ok := s.metas[id]
	s.mu.Unlock()
	if !ok {
		return nil, Meta{}, fmt.Errorf("store: unknown dataset %s", id)
	}
	data, err := os.ReadFile(s.segPath(id))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: reading segment: %w", err)
	}
	d, _, err := DecodeSegments(data)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			s.quarantine(id, err)
			return nil, Meta{}, &CorruptError{ID: id, Reason: err.Error()}
		}
		return nil, Meta{}, err
	}
	s.coldLoads.Add(1)
	return d, m, nil
}

// quarantine moves a corrupt segment aside and forgets the dataset.
func (s *Store) quarantine(id string, cause error) {
	dst := filepath.Join(s.dir, quarantineDir, id+segSuffix)
	if err := os.Rename(s.segPath(id), dst); err != nil {
		s.log.Error("store: quarantining corrupt segment failed", "id", id, "err", err)
	} else {
		s.log.Warn("store: quarantined corrupt segment", "id", id, "cause", cause)
	}
	s.corruptSegments.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeMetaLocked(id)
	if !s.closed {
		// Best-effort: record the removal so a restart does not resurrect
		// the meta and fail the load again.
		if err := s.walAppend(recDelete, []byte(id)); err != nil {
			s.log.Error("store: logging quarantine delete failed", "id", id, "err", err)
		}
	}
}

// Get returns the meta for id.
func (s *Store) Get(id string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[id]
	return m, ok
}

// List returns every stored dataset's meta in registration order.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.metas[id])
	}
	return out
}

// maybeCheckpointLocked runs a checkpoint when the WAL has accumulated
// enough records. Called with s.mu held.
func (s *Store) maybeCheckpointLocked() error {
	if s.opts.CheckpointEvery < 0 || s.wal.records < s.opts.CheckpointEvery {
		return nil
	}
	return s.checkpointLocked()
}

// Checkpoint writes the manifest via atomic rename, truncates the WAL, and
// sweeps orphaned segment files. After a checkpoint the store's full state
// is reconstructible from the manifest and segments alone.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.checkpointLocked()
}

// checkpointLocked truncates the WAL only once the manifest that replaces
// it is durable: a failure before that leaves the previous manifest and
// the intact WAL, which still reconstruct everything.
func (s *Store) checkpointLocked() error {
	man := manifest{Version: 1}
	for _, id := range s.order {
		man.Datasets = append(man.Datasets, s.metas[id])
	}
	mj, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	if err := s.writeFile(manifestName, mj); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return fmt.Errorf("store: resetting wal: %w", err)
	}
	s.sweepOrphansLocked()
	s.checkpoints.Add(1)
	s.log.Info("store: checkpoint", "datasets", len(s.metas))
	return nil
}

// sweepOrphansLocked removes segment files no live meta references: the
// segment of a Put whose WAL append failed (or never ran) after the
// segment was renamed into place. A Put still in flight is spared.
func (s *Store) sweepOrphansLocked() {
	segs, _ := filepath.Glob(filepath.Join(s.dir, "*"+segSuffix))
	for _, p := range segs {
		id := strings.TrimSuffix(filepath.Base(p), segSuffix)
		if _, ok := s.metas[id]; !ok && s.writing[id] == 0 {
			os.Remove(p)
		}
	}
}

// Health returns a snapshot of the durability counters.
func (s *Store) Health() Health {
	s.mu.Lock()
	n := len(s.metas)
	s.mu.Unlock()
	return Health{
		WALAppends:      s.walAppends.Load(),
		WALFsyncs:       s.walFsyncs.Load(),
		Checkpoints:     s.checkpoints.Load(),
		Recoveries:      s.recoveries.Load(),
		ColdLoads:       s.coldLoads.Load(),
		CorruptSegments: s.corruptSegments.Load(),
		Datasets:        n,
	}
}

// Close closes the WAL file. It does not checkpoint — callers that want a
// clean manifest call Checkpoint first (recovery handles the alternative).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for fsync: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsyncing dir: %w", err)
	}
	return nil
}
