// Command serve runs the long-lived mining service: register CSV datasets
// once, then submit asynchronous mine jobs against them over a JSON HTTP
// API with admission control, per-job deadlines and a deduplicating result
// cache (see internal/serve for the endpoint inventory).
//
// Usage:
//
//	serve -addr :8377 [-workers N] [-queue N] [-row-budget N] [-grace 10s]
//	      [-log-level info] [-log-format text|json] [-pprof] [-drain-wait 0s]
//	      [-data-dir DIR]
//
// With -data-dir the dataset registry is persistent: registrations are
// written through to a WAL-backed columnar store under DIR, a restart
// rehydrates the registry from it (same content-hash addresses, no
// re-upload), and row-budget eviction demotes datasets to the on-disk
// cold tier instead of dropping them. Shutdown checkpoints the store.
//
// Structured logs (access lines, job lifecycle with request/job
// correlation IDs, registry events) go to stderr; stdout keeps the two
// operator lines ("listening on", "drained").
//
// SIGINT/SIGTERM drains gracefully: readiness (/readyz) flips to 503
// immediately, -drain-wait leaves load balancers a propagation window
// while everything keeps serving, then the listener stops accepting and
// running jobs get the grace period before their contexts are canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdadcs/internal/obs"
	"sdadcs/internal/serve"
	"sdadcs/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8377", "listen address")
		workers   = fs.Int("workers", 0, "mining worker-pool size (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 64, "pending-job queue depth (full queue => 429)")
		rowBudget = fs.Int("row-budget", 0, "dataset registry row budget; LRU eviction past it (0 = unbounded)")
		cacheN    = fs.Int("cache", 128, "result-cache entries")
		timeout   = fs.Duration("timeout", 5*time.Minute, "default per-job deadline (0 = none)")
		grace     = fs.Duration("grace", 10*time.Second, "drain grace for running jobs on shutdown")
		maxUpload = fs.Int64("max-upload", 64<<20, "maximum dataset registration body in bytes")
		logLevel  = fs.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat = fs.String("log-format", "text", "structured log format: text or json")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		drainWait = fs.Duration("drain-wait", 0, "on shutdown, keep serving this long after /readyz turns 503 (LB propagation window)")
		dataDir   = fs.String("data-dir", "", "persist datasets to this directory (WAL-backed store; restart rehydrates the registry)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	log, err := obs.Config{Level: *logLevel, Format: *logFormat, Output: stderr}.NewLogger()
	if err != nil {
		fmt.Fprintln(stderr, "serve:", err)
		return 2
	}

	dt := *timeout
	if dt == 0 {
		dt = -1 // Options treats 0 as "use default"; negative means none.
	}
	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(*dataDir, store.Options{Logger: log.With("component", "store")})
		if err != nil {
			fmt.Fprintln(stderr, "serve:", err)
			return 1
		}
	}
	s := serve.New(serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		RowBudget:      *rowBudget,
		CacheEntries:   *cacheN,
		DefaultTimeout: dt,
		MaxUploadBytes: *maxUpload,
		Logger:         log,
		EnablePprof:    *pprofOn,
		Store:          st,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "serve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "serve: listening on %s\n", ln.Addr())

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// No blanket WriteTimeout: result bodies and trace exports can be
		// large; the header timeout plus the job deadlines bound abuse.
		IdleTimeout: 60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "serve: signal received, draining")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "serve:", err)
			return 1
		}
	}

	// Drain order: readiness flips first so load balancers stop routing
	// (-drain-wait leaves them a propagation window during which every
	// endpoint still serves), then the listener stops accepting — in-flight
	// responses get the grace window too — then the job manager drains, and
	// running mines get the same grace before their contexts are canceled.
	s.StartDrain()
	if *drainWait > 0 {
		time.Sleep(*drainWait)
	}
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		_ = srv.Close()
	}
	s.Close(*grace)
	if st != nil {
		// Jobs are drained; write the manifest and truncate the WAL so the
		// next boot recovers from a clean manifest (a crash-path boot
		// replays the WAL instead — same state, slower open).
		if err := st.Checkpoint(); err != nil {
			fmt.Fprintln(stderr, "serve: checkpoint on shutdown:", err)
		}
		if err := st.Close(); err != nil {
			fmt.Fprintln(stderr, "serve: closing store:", err)
		}
	}
	fmt.Fprintln(stdout, "serve: drained")
	return 0
}
