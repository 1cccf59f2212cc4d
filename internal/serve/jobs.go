package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sdadcs/internal/dataset"
	"sdadcs/internal/engine"
	"sdadcs/internal/metrics"
	"sdadcs/internal/obs"
	"sdadcs/internal/report"
	"sdadcs/internal/trace"
)

// JobState names one station of the job lifecycle:
// pending → running → done | failed | canceled.
type JobState string

// Job states.
const (
	JobPending  JobState = "pending"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is returned by Submit when the bounded job queue has no
	// free slot (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining is returned by Submit after Close began (HTTP 503).
	ErrDraining = errors.New("serve: server draining, not accepting jobs")
	// ErrUnknownDataset is returned for dataset IDs not in the registry.
	ErrUnknownDataset = errors.New("serve: unknown dataset")
	// ErrUnknownJob is returned for job IDs never submitted.
	ErrUnknownJob = errors.New("serve: unknown job")
	// errLeaderAborted lands on deduplicated followers whose shared
	// execution was canceled or failed.
	errLeaderAborted = errors.New("serve: deduplicated execution aborted")
	// errReplayMismatch fails a trace read whose re-mine rendered a
	// different result than the job's.
	errReplayMismatch = errors.New("serve: trace replay rendered a different result")
)

// Job is one submitted mine. All mutable fields are guarded by mu; the
// immutable identity fields (ID, DatasetID, key, cfg, ds) are set before
// the job is published and never change.
type Job struct {
	ID        string
	DatasetID string
	key       string // dataset ID + canonical config hash: the dedup address
	cfg       engine.Config
	timeout   time.Duration
	ds        *dataset.Dataset
	dsInfo    DatasetInfo
	release   func() // registry unpin; leader-owned, called exactly once

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on reaching a terminal state

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	err      error
	deduped  bool              // follower of another job's execution
	cacheHit bool              // served from the result cache without any execution
	rec      *metrics.Recorder // live while running
	out      *mineOutput       // set when done
}

// JobProgress is the live view of a running mine, distilled from the
// per-job metrics snapshot.
type JobProgress struct {
	LevelsDone     int     `json:"levels_done"`
	MaxDepth       int     `json:"max_depth"`
	NodesEvaluated int64   `json:"nodes_evaluated"`
	SpacesPruned   int64   `json:"spaces_pruned"`
	SDADCalls      int64   `json:"sdad_calls"`
	Threshold      float64 `json:"threshold"`
}

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID         string       `json:"id"`
	DatasetID  string       `json:"dataset_id"`
	Algorithm  string       `json:"algorithm"`
	ConfigHash string       `json:"config_hash"`
	State      JobState     `json:"state"`
	Error      string       `json:"error,omitempty"`
	Deduped    bool         `json:"deduplicated,omitempty"`
	CacheHit   bool         `json:"cache_hit,omitempty"`
	Contrasts  int          `json:"contrasts,omitempty"`
	CreatedAt  time.Time    `json:"created_at"`
	StartedAt  *time.Time   `json:"started_at,omitempty"`
	FinishedAt *time.Time   `json:"finished_at,omitempty"`
	Progress   *JobProgress `json:"progress,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.ID,
		DatasetID:  j.DatasetID,
		Algorithm:  j.cfg.AlgorithmName(),
		ConfigHash: j.cfg.CanonicalHash(),
		State:      j.state,
		Deduped:    j.deduped,
		CacheHit:   j.cacheHit,
		CreatedAt:  j.created,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.out != nil {
		st.Contrasts = j.out.Contrasts
	}
	if j.state == JobRunning && j.rec != nil {
		s := j.rec.Snapshot()
		p := &JobProgress{
			LevelsDone: len(s.Levels),
			MaxDepth:   j.cfg.ResolvedMaxDepth(),
			SDADCalls:  s.SDADCalls,
			Threshold:  s.Threshold,
		}
		for _, lv := range s.Levels {
			p.NodesEvaluated += lv.Nodes
		}
		p.SpacesPruned = s.TotalPruned()
		st.Progress = p
	}
	return st
}

// State returns the current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Output returns the mine output once terminal (nil for failed/canceled).
func (j *Job) Output() (*mineOutput, JobState, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.out, j.state, j.err
}

// Dataset returns the dataset explanations should be rendered against:
// the globally-discretized view when the algorithm produced one (its
// contrasts' items name the binned attributes), otherwise the raw dataset.
func (j *Job) Dataset() *dataset.Dataset {
	j.mu.Lock()
	out := j.out
	j.mu.Unlock()
	if out != nil && out.Binned != nil {
		return out.Binned
	}
	return j.ds
}

// liveMetrics returns the running job's instrumentation snapshot.
func (j *Job) liveMetrics() (metrics.Snapshot, bool) {
	j.mu.Lock()
	rec := j.rec
	running := j.state == JobRunning
	j.mu.Unlock()
	if !running || rec == nil {
		return metrics.Snapshot{}, false
	}
	return rec.Snapshot(), true
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finish moves the job to a terminal state exactly once; later calls
// no-op, so an individually-canceled follower is not overwritten by its
// flight's outcome.
func (j *Job) finish(out *mineOutput, err error, c *counters) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.finished = time.Now().UTC()
	j.rec = nil
	switch {
	case err == nil:
		j.state = JobDone
		j.out = out
		c.jobsDone.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
		j.err = err
		c.jobsCanceled.Add(1)
	default:
		j.state = JobFailed
		j.err = err
		c.jobsFailed.Add(1)
	}
	j.mu.Unlock()
	close(j.done)
	j.cancel() // release the context subtree; idempotent
}

// logFinished emits the terminal lifecycle record for a job that just
// left finish(); logged against the job's correlated context so the line
// carries both request_id and job_id.
func (j *Job) logFinished(log *slog.Logger) {
	j.mu.Lock()
	state, err, created, finished := j.state, j.err, j.created, j.finished
	contrasts := 0
	if j.out != nil {
		contrasts = j.out.Contrasts
	}
	deduped := j.deduped
	j.mu.Unlock()
	attrs := []any{
		"state", string(state),
		"algorithm", j.cfg.AlgorithmName(),
		"dataset_id", j.DatasetID,
		"contrasts", contrasts,
		"total_ms", float64(finished.Sub(created)) / 1e6,
	}
	if deduped {
		attrs = append(attrs, "deduplicated", true)
	}
	switch state {
	case JobFailed:
		attrs = append(attrs, "error", fmt.Sprint(err))
		log.ErrorContext(j.ctx, "job failed", attrs...)
	case JobCanceled:
		log.InfoContext(j.ctx, "job canceled", attrs...)
	default:
		log.InfoContext(j.ctx, "job done", attrs...)
	}
}

// flight is one singleflight execution: the leader runs the mine; the
// followers (identical dataset + canonical config, submitted while the
// leader was pending or running) share its outcome without costing a
// worker or a queue slot.
type flight struct {
	leader    *Job
	followers []*Job
}

// Manager owns the worker pool, the bounded queue, the job table and the
// dedup/caching discipline.
type Manager struct {
	reg            *Registry
	cache          *resultCache
	queue          chan *Job
	defaultTimeout time.Duration
	counters       *counters
	log            *slog.Logger // component serve.jobs
	mineLog        *slog.Logger // component engine, carried into mine contexts
	queueWait      metrics.Histogram
	replaySlots    chan struct{} // one token per running trace replay

	totalsMu sync.Mutex
	totals   map[string]*algTotals // by algorithm

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order
	inflight map[string]*flight
	closed   bool
	seq      atomic.Uint64
}

// newManager starts workers goroutines consuming a queue of queueDepth.
func newManager(reg *Registry, cache *resultCache, workers, queueDepth int, defaultTimeout time.Duration, c *counters, log *slog.Logger) *Manager {
	if workers <= 0 {
		workers = 1
	}
	if queueDepth <= 0 {
		queueDepth = 64
	}
	log = obs.Or(log)
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		reg:            reg,
		cache:          cache,
		queue:          make(chan *Job, queueDepth),
		defaultTimeout: defaultTimeout,
		counters:       c,
		log:            log.With("component", "serve.jobs"),
		mineLog:        log.With("component", "engine"),
		totals:         make(map[string]*algTotals),
		baseCtx:        ctx,
		baseCancel:     cancel,
		jobs:           make(map[string]*Job),
		inflight:       make(map[string]*flight),
		replaySlots:    make(chan struct{}, workers),
	}
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// QueueWait snapshots the queue-wait histogram (pending → running).
func (m *Manager) QueueWait() metrics.HistogramSnapshot {
	return m.queueWait.Snapshot()
}

// Submit validates, resolves the dataset, and either completes the job
// from the result cache, attaches it to an in-flight identical execution,
// or enqueues it as a new leader. ErrQueueFull means every queue slot is
// taken (HTTP 429); ErrDraining means Close began.
//
// ctx is the admission context: its request correlation ID (obs) is
// adopted into the job's own context so every later lifecycle record can
// be joined back to the submitting request. Cancellation of ctx does NOT
// cancel the job — jobs outlive their submitting request by design.
func (m *Manager) Submit(ctx context.Context, datasetID string, cfg engine.Config, timeout time.Duration) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds, info, release, ok := m.reg.Acquire(datasetID)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDataset, datasetID)
	}
	if timeout <= 0 {
		timeout = m.defaultTimeout
	}
	id := fmt.Sprintf("job_%08x", m.seq.Add(1))
	// The job context carries the correlation pair (request ID adopted
	// from admission, its own job ID) plus the engine-facing logger, so
	// layers below the manager emit joined records without knowing about
	// the service at all.
	jctx := obs.WithJobID(obs.WithRequestID(m.baseCtx, obs.RequestID(ctx)), id)
	jctx = obs.WithLogger(jctx, m.mineLog)
	jctx, cancel := context.WithCancel(jctx)
	job := &Job{
		ID:        id,
		DatasetID: datasetID,
		key:       datasetID + "/" + cfg.CanonicalHash(),
		cfg:       cfg,
		timeout:   timeout,
		ds:        ds,
		dsInfo:    info,
		release:   release,
		ctx:       jctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     JobPending,
		created:   time.Now().UTC(),
	}
	accepted := func(outcome string) {
		m.counters.jobsSubmitted.Add(1)
		m.log.InfoContext(job.ctx, "job accepted",
			"outcome", outcome,
			"dataset_id", datasetID,
			"algorithm", job.cfg.AlgorithmName(),
			"config_hash", cfg.CanonicalHash())
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		release()
		m.log.WarnContext(ctx, "job rejected: draining", "dataset_id", datasetID)
		return nil, ErrDraining
	}

	// Result cache: identical (dataset, config) already mined — the job is
	// born done, costing neither a worker nor a queue slot.
	if out, hit := m.cache.get(job.key); hit {
		m.publishLocked(job)
		m.mu.Unlock()
		job.mu.Lock()
		job.cacheHit = true
		job.mu.Unlock()
		m.counters.cacheHits.Add(1)
		accepted("cache_hit")
		job.finish(out, nil, m.counters)
		job.logFinished(m.log)
		cancel()
		release()
		return job, nil
	}

	// Singleflight: an identical execution is pending or running — attach
	// as a follower and share its outcome.
	if fl, ok := m.inflight[job.key]; ok {
		job.mu.Lock()
		job.deduped = true
		job.mu.Unlock()
		fl.followers = append(fl.followers, job)
		m.publishLocked(job)
		m.mu.Unlock()
		m.counters.dedupHits.Add(1)
		accepted("deduplicated")
		release() // the leader's pin keeps the dataset alive
		return job, nil
	}

	// Leader: reserve the flight, then a queue slot.
	select {
	case m.queue <- job:
		m.inflight[job.key] = &flight{leader: job}
		m.publishLocked(job)
		m.mu.Unlock()
		accepted("queued")
		return job, nil
	default:
		m.mu.Unlock()
		cancel()
		release()
		m.log.WarnContext(ctx, "job rejected: queue full", "dataset_id", datasetID)
		return nil, ErrQueueFull
	}
}

// publishLocked records the job in the table; m.mu must be held.
func (m *Manager) publishLocked(j *Job) {
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// QueueDepth reports the currently-occupied queue slots.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// Cancel cancels a job: a running mine is interrupted through its context
// (the SDAD-CS recursion and merge loop check it, so interruption is
// prompt even mid-discretization); a pending job is finished as canceled
// immediately. Terminal jobs are left untouched.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.cancel()
	job.mu.Lock()
	pending := job.state == JobPending
	job.mu.Unlock()
	if pending {
		// Queued leaders and followers land in canceled now; the worker
		// (or the leader's flight completion) later observes the terminal
		// state and no-ops on this job.
		job.finish(nil, context.Canceled, m.counters)
		job.logFinished(m.log)
	}
	return job, nil
}

// worker consumes the queue until Close closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

// mine executes the engine call with panic isolation: a panicking
// algorithm fails this one job or trace replay (stack preserved in the
// log, the job_panics counter incremented) instead of unwinding the
// goroutine and killing the process.
func (m *Manager) mine(ctx context.Context, job *Job, cfg engine.Config) (res engine.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			m.counters.jobPanics.Add(1)
			m.log.ErrorContext(job.ctx, "job panicked",
				"algorithm", job.cfg.AlgorithmName(),
				"dataset_id", job.DatasetID,
				"panic", fmt.Sprint(p),
				"stack", string(debug.Stack()))
			err = fmt.Errorf("serve: job panicked: %v", p)
		}
	}()
	return engine.MineContext(ctx, job.ds, cfg)
}

// runJob executes one leader job and completes its flight.
func (m *Manager) runJob(job *Job) {
	if err := job.ctx.Err(); err != nil {
		// Canceled while queued (or the manager is shutting down).
		m.finishFlight(job, nil, err)
		return
	}
	rec := metrics.New()
	job.mu.Lock()
	if job.state.Terminal() { // canceled between the ctx check and here
		job.mu.Unlock()
		m.finishFlight(job, nil, context.Canceled)
		return
	}
	job.state = JobRunning
	job.started = time.Now().UTC()
	wait := job.started.Sub(job.created)
	job.rec = rec
	m.counters.jobsRunning.Add(1)
	job.mu.Unlock()
	defer m.counters.jobsRunning.Add(-1)
	m.queueWait.Observe(wait)
	m.log.InfoContext(job.ctx, "job running",
		"algorithm", job.cfg.AlgorithmName(),
		"dataset_id", job.DatasetID,
		"queue_wait_ms", float64(wait)/1e6)

	cfg := job.cfg
	cfg.Metrics = rec

	runCtx := job.ctx
	if job.timeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(job.ctx, job.timeout)
		defer tcancel()
	}

	mineStart := time.Now()
	m.counters.mineExecutions.Add(1)
	res, err := m.mine(runCtx, job, cfg)
	m.observeMine(job.cfg.AlgorithmName(), rec.Snapshot(), time.Since(mineStart))
	if err != nil {
		m.finishFlight(job, nil, err)
		return
	}

	body, err := render(job, res)
	if err != nil {
		m.finishFlight(job, nil, err)
		return
	}
	out := &mineOutput{
		JSON:      body,
		Contrasts: len(res.Contrasts),
		Stats:     res.Stats,
		Metrics:   res.Metrics,
		Binned:    res.Binned,
		traceLock: make(chan struct{}, 1),
	}
	m.cache.put(job.key, out)
	m.finishFlight(job, out, nil)
}

// render encodes a mine's contrasts as the job's report JSON. Globally-
// discretizing algorithms (mvd, entropy) emit contrasts whose items refer
// to the binned view, so they render against it.
func render(job *Job, res engine.Result) ([]byte, error) {
	d := job.ds
	if res.Binned != nil {
		d = res.Binned
	}
	var buf bytes.Buffer
	if err := report.JSON(&buf, d, res.Contrasts); err != nil {
		return nil, fmt.Errorf("serve: rendering result: %w", err)
	}
	return buf.Bytes(), nil
}

// traceOf returns a done job's decision trace. Jobs mine untraced, so the
// first read re-mines the job's dataset and config with a tracer: mining
// is deterministic, so the re-mine takes the same decisions, and it must
// render the job's result byte for byte or the read fails with
// errReplayMismatch. The trace is memoized on the shared output, so a
// leader, its followers and later cache hits replay at most once between
// them. Reads wait for the memo and for one of the pool's replay slots
// under ctx; a replay cut short by ctx (the client went away) or by the
// job's timeout is not memoized. select picks at random when a slot is
// free and ctx is done alike, so each acquire re-checks ctx: a read whose
// request already ended neither waits on, replays nor counts anything.
func (m *Manager) traceOf(ctx context.Context, job *Job, out *mineOutput) (*trace.Trace, error) {
	if err := acquire(ctx, out.traceLock); err != nil {
		return nil, err
	}
	defer func() { <-out.traceLock }()
	if out.trace != nil {
		return out.trace, nil
	}
	// The slot is taken under the output's lock, so the readers of one
	// output queue on its lock and hold one slot between them.
	if err := acquire(ctx, m.replaySlots); err != nil {
		return nil, err
	}
	defer func() { <-m.replaySlots }()
	tr, err := m.replay(ctx, job, out)
	if err != nil {
		return nil, err
	}
	out.trace = tr
	return tr, nil
}

// acquire takes a slot of sem under ctx. A slot taken while ctx is
// already done is given back, and ctx's error returned.
func acquire(ctx context.Context, sem chan struct{}) error {
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		<-sem
		return err
	}
	return nil
}

// replay re-mines job with a tracer under the job's timeout, and checks
// the re-mine against the job's result.
func (m *Manager) replay(ctx context.Context, job *Job, out *mineOutput) (*trace.Trace, error) {
	ctx = obs.WithLogger(obs.WithJobID(ctx, job.ID), m.mineLog)
	if job.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.timeout)
		defer cancel()
	}
	cfg := job.cfg
	cfg.Trace = trace.New(0)
	m.counters.traceReplays.Add(1)
	res, err := m.mine(ctx, job, cfg)
	if err != nil {
		return nil, err
	}
	body, err := render(job, res)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(body, out.JSON) {
		m.counters.traceReplayMismatches.Add(1)
		m.log.ErrorContext(ctx, "trace replay mismatch",
			"algorithm", job.cfg.AlgorithmName(),
			"dataset_id", job.DatasetID)
		return nil, errReplayMismatch
	}
	return res.Trace, nil
}

// finishFlight settles the leader and every follower of its flight, then
// releases the leader's dataset pin.
func (m *Manager) finishFlight(leader *Job, out *mineOutput, err error) {
	m.mu.Lock()
	fl := m.inflight[leader.key]
	delete(m.inflight, leader.key)
	m.mu.Unlock()

	leader.finish(out, err, m.counters)
	leader.logFinished(m.log)
	if fl != nil {
		for _, f := range fl.followers {
			if err == nil {
				f.finish(out, nil, m.counters)
			} else {
				f.finish(nil, fmt.Errorf("%w: %v", errLeaderAborted, err), m.counters)
			}
			f.logFinished(m.log)
		}
	}
	leader.release()
}

// Close drains the manager: no new submissions, queued jobs keep running
// until the grace period expires, then every remaining context is
// canceled. Close returns only after all worker goroutines exited, so a
// returned Close is the no-goroutine-leak guarantee the shutdown tests
// lean on. Safe to call more than once.
func (m *Manager) Close(grace time.Duration) {
	m.mu.Lock()
	first := !m.closed
	m.closed = true
	m.mu.Unlock()
	if first {
		close(m.queue)
		m.log.Info("job manager draining", "grace", grace.String())
	}

	workersDone := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersDone)
	}()
	if grace > 0 {
		t := time.NewTimer(grace)
		select {
		case <-workersDone:
			t.Stop()
		case <-t.C:
		}
	}
	m.baseCancel() // cancels every job context still alive
	<-workersDone
	if first {
		m.log.Info("job manager drained")
	}
}
