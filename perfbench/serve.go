package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/report"
	"sdadcs/internal/serve"
	"sdadcs/internal/store"
)

const (
	// serveDepth is the depth of every mining job.
	serveDepth = 2
	// sessionOpsPerClient is the length of one service session. The
	// service keeps every finished job and its decision trace, about 30 MiB
	// of resident memory each, so a timed phase runs as a series of
	// sessions on fresh service instances over the same data directory:
	// memory stays bounded, and peak_rss_mb does not rise merely because
	// jobs got faster. The traced phase is one session, so its work counts
	// do not depend on the machine's speed.
	sessionOpsPerClient = 10
	// tracedSession numbers the traced phase's session apart from the
	// timed ones, so its configs and datasets are new to the store.
	tracedSession = 1000
	// repeatWindow bounds how far back a repeat reaches: well inside the
	// service's 128-entry result cache, so a repeat is always a hit.
	repeatWindow = 16
	// jobWait bounds the wait for one job or request.
	jobWait = 60 * time.Second
)

// opKind is one client operation of the serve-mixed mix.
type opKind int

const (
	opNew      opKind = iota // a config no one submitted before: the job mines
	opRepeat                 // an earlier config: a born-done cache hit
	opRegister               // a new dataset variant: parse, WAL fsync, segment write
)

// opBlock is one block of the op mix: 7 new configs, 2 repeats and 1
// registration. Each client shuffles a block at a time with its own seed,
// so the mix is exact per ten operations and its order is seeded.
var opBlock = [10]opKind{opNew, opNew, opNew, opNew, opNew, opNew, opNew, opRepeat, opRepeat, opRegister}

// serveEnv is the service under test and the clients' view of it.
type serveEnv struct {
	r      *run
	srv    *serve.Server
	url    string
	client *http.Client
	dsID   string
	// spans receives the client operations' spans: nil outside the traced
	// phase.
	spans *spanLog
}

// clientRun is what one client measured in one phase.
type clientRun struct {
	jobs, hits, registers []float64 // latencies in seconds, successful ops only
	lats                  []float64 // every operation's latency, in order
	missIDs               []string  // the jobs that mined
	ops                   int
	tally                 tally
}

// serveMixed drives the HTTP service, backed by a dataset store, with one
// closed-loop client per CPU.
func serveMixed(r *run) error {
	csv, err := csvOf(manufacturing(r.seed))
	if err != nil {
		return err
	}
	dataDir := filepath.Join(r.dir, "store")
	dsID, err := seedStore(dataDir, csv)
	if err != nil {
		return err
	}
	setup, err := r.repeatSetup(func() (float64, error) {
		srv, st, secs, err := r.openService(dataDir, dsID)
		if err != nil {
			return 0, err
		}
		srv.Close(0)
		return secs, st.Close()
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	if !r.traced {
		t, err := r.serveSessions(dataDir, dsID, r.seconds)
		if err != nil {
			return err
		}
		r.set("op_p50_s", median(t.jobs))
		r.setTail(t.jobs)
		// Each client's session is one shuffled block of the op mix.
		r.set("ops_per_s", float64(r.workers)*median(t.rates))
		r.set("alloc_mb_per_op", t.alloc/float64(t.ops))
		r.note("%d mining jobs, %d cache hits (p50 %.4g s), %d registrations (p50 %.4g s)",
			len(t.jobs), len(t.hits), median(t.hits), len(t.registers), median(t.registers))
		return nil
	}

	// Traced run: untraced half-length sessions give the overhead
	// baseline, then one traced session runs on configs and datasets new
	// to the store.
	plain, err := r.serveSessions(dataDir, dsID, r.seconds/2)
	if err != nil {
		return err
	}
	return r.session(dataDir, dsID, func(e *serveEnv, st *store.Store) error {
		before, health := e.srv.Metrics(), st.Health()
		e.spans = r.spans
		runs, _ := e.phase(tracedSession)
		e.spans = nil
		after := e.srv.Metrics()
		fsyncs := float64(st.Health().WALFsyncs - health.WALFsyncs)
		var (
			jobs      []float64
			snaps     []metrics.Snapshot
			registers int
		)
		for _, c := range runs {
			jobs = append(jobs, c.jobs...)
			registers += len(c.registers)
			r.tally.add(c.tally)
			for _, id := range c.missIDs {
				if s, ok := e.jobMetrics(id); ok {
					snaps = append(snaps, s)
				}
			}
		}
		var err error
		r.spans.time(r.spans.id(), 0, "store.checkpoint", func() { err = st.Checkpoint() })
		if err != nil {
			return err
		}

		r.set("bench.trace_overhead_ratio", ratio(median(jobs), median(plain.jobs)))
		r.coreLayer(snaps, float64(len(snaps)))
		for _, name := range []string{"dataset.parse", "store.open", "store.cold_decode", "store.checkpoint",
			"serve.submit", "serve.result_fetch", "serve.queue_wait", "serve.job_mine"} {
			r.set(name+"_s", median(r.spans.durations(name)))
		}
		r.set("serve.hit_p50_s", median(r.spans.durations("serve.hit")))
		r.set("serve.register_p50_s", median(r.spans.durations("serve.register")))
		r.set("serve.cache_hit_ratio", ratio(float64(after.CacheHits-before.CacheHits), float64(after.JobsSubmitted-before.JobsSubmitted)))
		r.set("serve.mine_executions", float64(after.MineExecutions-before.MineExecutions))
		r.set("serve.index_builds", float64(after.IndexBuilds))
		r.set("store.wal_fsyncs", fsyncs)
		r.set("store.fsync_per_register", ratio(fsyncs, float64(registers)))
		return nil
	})
}

// sessionTotals sums what a series of sessions measured.
type sessionTotals struct {
	jobs, hits, registers []float64
	rates                 []float64 // each client session's operations per second
	ops                   int
	alloc                 float64 // MiB allocated by the clients' phases, restarts excluded
}

// serveSessions runs sessions, numbered from 0, until dur has passed and
// they finished minSamples mining jobs, or maxLoop passed.
func (r *run) serveSessions(dataDir, dsID string, dur time.Duration) (sessionTotals, error) {
	var t sessionTotals
	start := time.Now()
	for n := 0; time.Since(start) < maxLoop && (time.Since(start) < dur || len(t.jobs) < minSamples); n++ {
		// Calibrate between sessions, while the service is idle.
		for i := 0; i < 3; i++ {
			r.calib.measure()
		}
		err := r.session(dataDir, dsID, func(e *serveEnv, _ *store.Store) error {
			runs, alloc := e.phase(n)
			t.alloc += alloc
			for _, c := range runs {
				t.rates = append(t.rates, blockRate(c.lats, sessionOpsPerClient))
				t.jobs = append(t.jobs, c.jobs...)
				t.hits = append(t.hits, c.hits...)
				t.registers = append(t.registers, c.registers...)
				t.ops += c.ops
				r.tally.add(c.tally)
			}
			return nil
		})
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// openService opens the store, rehydrates a service's registry from it
// and decodes the dataset from its segments on first use: the service's
// set-up, timed as a whole and recorded step by step.
func (r *run) openService(dataDir, dsID string) (*serve.Server, *store.Store, float64, error) {
	var (
		srv     *serve.Server
		st      *store.Store
		release func()
		ok      bool
		err     error
	)
	trace := r.spans.id()
	start := time.Now()
	r.spans.time(trace, 0, "store.open", func() { st, err = store.Open(dataDir, store.Options{}) })
	if err != nil {
		return nil, nil, 0, err
	}
	r.spans.time(trace, 0, "serve.rehydrate", func() { srv = serve.New(serve.Options{Workers: r.workers, Store: st}) })
	r.spans.time(trace, 0, "store.cold_decode", func() { _, _, release, ok = srv.Registry().Acquire(dsID) })
	secs := time.Since(start).Seconds()
	if !ok {
		srv.Close(0)
		st.Close()
		return nil, nil, 0, fmt.Errorf("dataset %s did not survive the store round trip", dsID)
	}
	release()
	return srv, st, secs, nil
}

// session opens a service instance, serves it over loopback HTTP, warms it
// up with one job (which builds the dataset's bitmap index), runs f, and
// shuts the instance down.
func (r *run) session(dataDir, dsID string, f func(*serveEnv, *store.Store) error) (err error) {
	srv, st, _, err := r.openService(dataDir, dsID)
	if err != nil {
		return err
	}
	defer func() {
		srv.Close(5 * time.Second)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: r.workers, MaxIdleConnsPerHost: r.workers}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
	}()
	e := &serveEnv{
		r:      r,
		srv:    srv,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: transport, Timeout: jobWait},
		dsID:   dsID,
	}
	if _, _, _, err := e.newJob(19); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	return f(e, st)
}

// seedStore registers the dataset through a store-backed registry,
// checkpoints and closes the store, leaving a data directory a later open
// rehydrates from. It returns the dataset's content-addressed ID.
func seedStore(dir string, csv []byte) (string, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return "", err
	}
	reg := serve.NewRegistry(0)
	reg.SetStore(st)
	info, err := reg.Register("manufacturing", csv, groupColumn, nil)
	if err == nil {
		err = st.Checkpoint()
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("seeding the data directory: %w", err)
	}
	return info.ID, nil
}

// phase runs one closed-loop client per CPU for sessionOpsPerClient
// operations each. It returns each client's measurements and the MiB the
// process allocated during the phase.
func (e *serveEnv) phase(session int) ([]clientRun, float64) {
	alloc0 := allocMiB()
	runs := make([]clientRun, e.r.workers)
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = e.clientLoop(session, c)
		}(c)
	}
	wg.Wait()
	return runs, allocMiB() - alloc0
}

// clientLoop is one closed-loop client: it sends its next operation only
// after the previous one completed.
func (e *serveEnv) clientLoop(session, c int) clientRun {
	rng := rand.New(rand.NewSource(subSeed(e.r.seed, 6, int64(session), int64(c))))
	type mined struct {
		topK int
		body []byte
	}
	var (
		out     clientRun
		block   []opKind
		history []mined
		fresh   int // new configs submitted so far
		variant int // datasets registered so far
	)
	for ; out.ops < sessionOpsPerClient; out.ops++ {
		if len(block) == 0 {
			b := opBlock
			rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			block = b[:]
		}
		kind := block[0]
		block = block[1:]
		if kind == opRepeat && len(history) == 0 {
			kind = opNew
		}
		var (
			lat float64
			err error
		)
		switch kind {
		case opNew:
			// top_k is part of the result-cache key, so a value no client
			// used before forces a mine; the mine's work does not depend on
			// it.
			topK := 20 + session*100000 + c + e.r.workers*fresh
			fresh++
			var (
				id   string
				body []byte
			)
			lat, id, body, err = e.newJob(topK)
			if err == nil {
				out.jobs = append(out.jobs, lat)
				out.missIDs = append(out.missIDs, id)
				history = append(history, mined{topK, body})
			}
		case opRepeat:
			h := history[len(history)-1-rng.Intn(min(repeatWindow, len(history)))]
			lat, err = e.repeatJob(h.topK, h.body)
			if err == nil {
				out.hits = append(out.hits, lat)
			}
		case opRegister:
			lat, err = e.register(session*1000+c, variant)
			variant++
			if err == nil {
				out.registers = append(out.registers, lat)
			}
		}
		out.tally.record(err)
		out.lats = append(out.lats, lat)
	}
	return out
}

// newJob submits a config no one submitted before, waits for the job and
// fetches its result, which must name the planted root cause.
func (e *serveEnv) newJob(topK int) (lat float64, id string, body []byte, err error) {
	trace, opID := e.spans.id(), e.spans.id()
	start := time.Now()
	var st serve.JobStatus
	e.spans.time(trace, opID, "serve.submit", func() { st, err = e.submit(topK) })
	if err == nil && st.CacheHit {
		err = fmt.Errorf("new config top_k=%d was served from the cache", topK)
	}
	if err == nil {
		e.spans.time(trace, opID, "serve.wait", func() { err = e.wait(st.ID) })
	}
	if err == nil {
		e.spans.time(trace, opID, "serve.result_fetch", func() { body, err = e.result(st.ID) })
	}
	end := time.Now()
	e.spans.add(trace, opID, 0, "serve.job", start, end, nil)
	if err == nil {
		err = rootCause(body)
	}
	if err == nil && e.spans != nil {
		err = e.jobTimes(trace, opID, st.ID)
	}
	return end.Sub(start).Seconds(), st.ID, body, err
}

// repeatJob resubmits an earlier config: the job must be a born-done
// cache hit whose result is byte-identical to the mine that filled the
// cache.
func (e *serveEnv) repeatJob(topK int, want []byte) (lat float64, err error) {
	trace, opID := e.spans.id(), e.spans.id()
	start := time.Now()
	var (
		st   serve.JobStatus
		body []byte
	)
	e.spans.time(trace, opID, "serve.submit", func() { st, err = e.submit(topK) })
	if err == nil && (!st.CacheHit || st.State != serve.JobDone) {
		err = fmt.Errorf("repeat of top_k=%d was not a cache hit (state %s)", topK, st.State)
	}
	if err == nil {
		e.spans.time(trace, opID, "serve.wait", func() { err = e.wait(st.ID) })
	}
	if err == nil {
		e.spans.time(trace, opID, "serve.result_fetch", func() { body, err = e.result(st.ID) })
	}
	end := time.Now()
	e.spans.add(trace, opID, 0, "serve.hit", start, end, nil)
	if err == nil && !bytes.Equal(body, want) {
		err = fmt.Errorf("wrong output: cache hit for top_k=%d differs from the mine that filled the cache", topK)
	}
	return end.Sub(start).Seconds(), err
}

// register uploads the k-th dataset variant of a client.
func (e *serveEnv) register(client, k int) (float64, error) {
	d := manufacturingVariant(e.r.seed, client, k)
	csv, err := csvOf(d)
	if err != nil {
		return 0, err
	}
	payload, err := json.Marshal(serve.RegisterRequest{Name: d.Name(), GroupColumn: groupColumn, CSV: string(csv)})
	if err != nil {
		return 0, err
	}
	trace := e.spans.id()
	if e.spans != nil {
		// The parse layer alone, on the same bytes the service parses.
		e.spans.time(trace, 0, "dataset.parse", func() {
			_, err = dataset.FromCSV(bytes.NewReader(csv), dataset.CSVOptions{GroupColumn: groupColumn})
		})
		if err != nil {
			return 0, err
		}
	}
	var (
		status int
		body   []byte
	)
	lat := e.spans.time(trace, 0, "serve.register", func() {
		status, body, err = e.do(http.MethodPost, "/v1/datasets", payload)
	})
	if err == nil {
		err = statusErr("register", status, http.StatusCreated)
	}
	if err != nil {
		return lat, err
	}
	var info serve.DatasetInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return lat, fmt.Errorf("wrong output: register response: %w", err)
	}
	if info.Rows != d.Rows() || info.Attrs != d.NumAttrs() {
		return lat, fmt.Errorf("wrong output: registered %d rows × %d attributes, sent %d × %d",
			info.Rows, info.Attrs, d.Rows(), d.NumAttrs())
	}
	return lat, nil
}

// submit posts a mining job for the seeded dataset.
func (e *serveEnv) submit(topK int) (serve.JobStatus, error) {
	var st serve.JobStatus
	payload, err := json.Marshal(serve.JobRequest{DatasetID: e.dsID,
		Config: serve.ConfigRequest{MaxDepth: serveDepth, TopK: topK}})
	if err != nil {
		return st, err
	}
	status, body, err := e.do(http.MethodPost, "/v1/jobs", payload)
	if err == nil {
		err = statusErr("submit", status, http.StatusAccepted)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// wait blocks on the job's Done channel, so no polling interval rounds
// the measured latency.
func (e *serveEnv) wait(id string) error {
	job, ok := e.srv.Manager().Job(id)
	if !ok {
		return fmt.Errorf("job %s is unknown to the manager", id)
	}
	t := time.NewTimer(jobWait)
	defer t.Stop()
	select {
	case <-job.Done():
	case <-t.C:
		return fmt.Errorf("job %s did not finish within %s", id, jobWait)
	}
	if state := job.State(); state != serve.JobDone {
		return fmt.Errorf("job %s ended %s", id, state)
	}
	return nil
}

// result fetches a finished job's result document.
func (e *serveEnv) result(id string) ([]byte, error) {
	status, body, err := e.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err == nil {
		err = statusErr("result", status, http.StatusOK)
	}
	return body, err
}

// jobTimes reads a finished job's status and records the service's own
// timestamps as spans: time queued, then time mining and rendering.
func (e *serveEnv) jobTimes(trace, parent uint64, id string) error {
	status, body, err := e.do(http.MethodGet, "/v1/jobs/"+id, nil)
	if err == nil {
		err = statusErr("status", status, http.StatusOK)
	}
	var st serve.JobStatus
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		return err
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		return fmt.Errorf("job %s status lacks start or finish time", id)
	}
	e.spans.add(trace, e.spans.id(), parent, "serve.queue_wait", st.CreatedAt, *st.StartedAt, nil)
	e.spans.add(trace, e.spans.id(), parent, "serve.job_mine", *st.StartedAt, *st.FinishedAt, nil)
	return nil
}

// jobMetrics returns the instrumentation snapshot of a finished job's
// mine.
func (e *serveEnv) jobMetrics(id string) (metrics.Snapshot, bool) {
	job, ok := e.srv.Manager().Job(id)
	if !ok {
		return metrics.Snapshot{}, false
	}
	out, _, _ := job.Output()
	if out == nil || out.Metrics == nil {
		return metrics.Snapshot{}, false
	}
	return *out.Metrics, true
}

// do sends one request and reads the whole response body, so the
// connection is reused.
func (e *serveEnv) do(method, path string, payload []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, e.url+path, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// rootCause checks that a manufacturing result names the planted root
// cause, CAM_entity=SCE or its physically attached placement_tool=JVF.
func rootCause(body []byte) error {
	var cs []report.JSONContrast
	if err := json.Unmarshal(body, &cs); err != nil {
		return fmt.Errorf("wrong output: result document: %w", err)
	}
	for _, c := range cs {
		for _, it := range c.Items {
			if (it.Attribute == "CAM_entity" && it.Value == "SCE") || (it.Attribute == "placement_tool" && it.Value == "JVF") {
				return nil
			}
		}
	}
	return fmt.Errorf("wrong output: %d contrasts, none names CAM_entity=SCE or placement_tool=JVF", len(cs))
}
