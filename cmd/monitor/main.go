// Command monitor replays a CSV through the sliding-window contrast
// monitor and prints pattern-change alerts — the "timely feedback to the
// engineers" deployment of the paper's introduction, driven from recorded
// line data.
//
// Usage:
//
//	monitor -input line.csv -group test_result -window 2000
//
// Rows are consumed in file order (assumed to be arrival order).
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"time"

	"sdadcs"
	"sdadcs/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input     = fs.String("input", "", "input CSV file (required; rows in arrival order)")
		group     = fs.String("group", "", "name of the group column (required)")
		window    = fs.Int("window", 2000, "sliding window size in rows")
		every     = fs.Int("every", 0, "re-mine cadence in rows (0 = window/4)")
		minScore  = fs.Float64("minscore", 0.2, "alerting floor for appear/disappear events")
		depth     = fs.Int("depth", 2, "maximum attributes per pattern")
		metricsA  = fs.String("metrics", "", "serve live pipeline metrics on this address (e.g. :8080; GET /metrics for the JSON snapshot, GET /metrics/prometheus for text exposition)")
		traceF    = fs.String("trace", "", "append one decision-trace segment per mined window to FILE as JSON Lines")
		logLevel  = fs.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat = fs.String("log-format", "text", "structured log format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *input == "" || *group == "" {
		fmt.Fprintln(stderr, "usage: monitor -input data.csv -group <column> [flags]")
		fs.PrintDefaults()
		return 2
	}

	log, err := obs.Config{Level: *logLevel, Format: *logFormat, Output: stderr}.NewLogger()
	if err != nil {
		fmt.Fprintln(stderr, "monitor:", err)
		return 2
	}

	f, err := os.Open(*input)
	if err != nil {
		fmt.Fprintln(stderr, "monitor:", err)
		return 1
	}
	defer f.Close()

	cr := csv.NewReader(f)
	header, err := cr.Read()
	if err != nil {
		fmt.Fprintln(stderr, "monitor: reading header:", err)
		return 1
	}

	// Column plan: the group column, then continuous vs categorical by
	// probing the first data row (numeric → continuous).
	groupCol := -1
	for i, h := range header {
		if h == *group {
			groupCol = i
		}
	}
	if groupCol == -1 {
		fmt.Fprintf(stderr, "monitor: group column %q not found\n", *group)
		return 1
	}
	first, err := cr.Read()
	if err != nil {
		fmt.Fprintln(stderr, "monitor: no data rows:", err)
		return 1
	}
	var contCols, catCols []int
	var schema sdadcs.StreamSchema
	schema.Name = *input
	for i, h := range header {
		if i == groupCol {
			continue
		}
		if _, err := strconv.ParseFloat(first[i], 64); err == nil {
			contCols = append(contCols, i)
			schema.Continuous = append(schema.Continuous, h)
		} else {
			catCols = append(catCols, i)
			schema.Categorical = append(schema.Categorical, h)
		}
	}

	// Replay until EOF or SIGINT: the signal context lets the HTTP server
	// shut down gracefully instead of dying mid-response when the operator
	// interrupts a long replay.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Live metrics endpoint: the recorder is shared with the miner, so a
	// GET /metrics during the replay sees counters moving in real time.
	// The server carries full read/write/idle timeouts — a stalled or idle
	// client cannot pin a connection (and its goroutine) forever.
	var mrec *sdadcs.MetricsRecorder
	if *metricsA != "" {
		mrec = sdadcs.NewMetricsRecorder()
		ln, lerr := net.Listen("tcp", *metricsA)
		if lerr != nil {
			fmt.Fprintln(stderr, "monitor: metrics listener:", lerr)
			return 1
		}
		srv := &http.Server{
			Handler:           metricsHandler(mrec, log),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      10 * time.Second,
			IdleTimeout:       60 * time.Second,
		}
		go func() { _ = srv.Serve(ln) }()
		defer func() {
			// Graceful drain: in-flight /metrics responses finish; the
			// listener closes either way once the timeout elapses.
			sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				_ = srv.Close()
			}
		}()
		fmt.Fprintf(stderr, "monitor: serving metrics on http://%s/metrics\n", ln.Addr())
	}

	// Per-window trace segments: the tracer is drained after every re-mine,
	// so FILE accumulates one JSONL segment per mined window (ReadTraceJSONL
	// decodes the concatenation).
	var tracer *sdadcs.Tracer
	var traceOut *os.File
	if *traceF != "" {
		tracer = sdadcs.NewTracer(0)
		traceOut, err = os.Create(*traceF)
		if err != nil {
			fmt.Fprintln(stderr, "monitor:", err)
			return 1
		}
		defer traceOut.Close()
	}

	m, err := sdadcs.NewStreamMonitor(schema, sdadcs.StreamConfig{
		WindowSize:    *window,
		MineEvery:     *every,
		MinEventScore: *minScore,
		Mining: sdadcs.Config{
			Measure:  sdadcs.SurprisingMeasure,
			MaxDepth: *depth,
			Metrics:  mrec,
			Trace:    tracer,
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "monitor:", err)
		return 1
	}

	rows := 0
	events := 0
	segments := 0
	rec := first
	for ctx.Err() == nil {
		cont := make([]float64, len(contCols))
		ok := true
		for i, c := range contCols {
			v, err := strconv.ParseFloat(rec[c], 64)
			if err != nil {
				ok = false
				break
			}
			cont[i] = v
		}
		if ok {
			cat := make([]string, len(catCols))
			for i, c := range catCols {
				cat[i] = rec[c]
			}
			rows++
			evs, err := m.Append(cont, cat, rec[groupCol])
			if errors.Is(err, sdadcs.ErrWindowNotMineable) {
				// Single-group window at this re-mine tick: keep filling
				// and retry at the next one (reported in the summary).
				err = nil
			}
			if err != nil {
				fmt.Fprintln(stderr, "monitor:", err)
				return 1
			}
			for _, e := range evs {
				events++
				fmt.Fprintf(stdout, "row %6d  [%s]  %s  (score %.2f)\n",
					rows, e.Kind, e.Format, e.Contrast.Score)
			}
			if tracer != nil && m.Mines() > segments {
				// One JSONL segment per mined window; Drain keeps the
				// cumulative volume counters and frees the buffer.
				segments = m.Mines()
				if werr := sdadcs.WriteTraceJSONL(traceOut, tracer.Drain()); werr != nil {
					fmt.Fprintln(stderr, "monitor: writing trace:", werr)
					return 1
				}
			}
		}
		rec, err = cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintln(stderr, "monitor:", err)
			return 1
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "monitor: interrupted, shutting down")
	}
	fmt.Fprintf(stdout, "replayed %d rows, %d windows mined, %d events\n",
		rows, m.Mines(), events)
	if tracer != nil {
		emitted, dropped, hw := tracer.Stats()
		fmt.Fprintf(stdout, "trace: %d segments, %d events (%d dropped, high water %d)\n",
			segments, emitted, dropped, hw)
	}
	if skipped := m.SkippedMines(); skipped > 0 {
		fmt.Fprintf(stdout, "skipped %d unmineable windows (single group)\n", skipped)
	}
	if mrec != nil {
		snap := mrec.Snapshot()
		fmt.Fprintf(stdout, "re-mine latency: %d windows, mean %s, max %s\n",
			snap.Remine.Count, snap.Remine.Mean(),
			time.Duration(snap.Remine.MaxNanos))
	}
	return 0
}

// metricsHandler mounts the live metrics routes over rec: GET /metrics
// serves the JSON snapshot and GET /metrics/prometheus the text
// exposition (miner, RED and Go runtime families). Every route sits
// behind the RED middleware: access logs with request IDs, latency and
// error accounting, panic recovery.
func metricsHandler(rec *sdadcs.MetricsRecorder, log *slog.Logger) http.Handler {
	log = log.With("component", "monitor.http")
	httpm := obs.NewHTTPMetrics()
	mw := &obs.Middleware{Log: log, Metrics: httpm}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", mw.Wrap("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = sdadcs.WriteMetrics(w, rec)
	})))
	mux.Handle("GET /metrics/prometheus", mw.Wrap("GET /metrics/prometheus", obs.PrometheusHandler(log, func() []obs.Family {
		fams := obs.MinerFamilies("sdadcs_miner_", obs.MinerSeries{Snapshot: rec.Snapshot()})
		fams = append(fams, obs.REDFamilies("sdadcs_http_", httpm)...)
		return append(fams, obs.RuntimeFamilies()...)
	})))
	return mux
}
