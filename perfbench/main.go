// Command perfbench is the repository benchmark. One run drives one
// workload against the mining library, the HTTP mining service with its
// dataset store, or the stream monitor; it checks every output and prints
// the workload's metrics, one per line, then a single JSON result line.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload mine-continuous --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant, which reports the per-layer metrics and writes its spans as
// JSON Lines under --out. LAYERS.md maps each per-layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"mine-continuous":  mineContinuous,
	"mine-categorical": mineCategorical,
	"serve-mixed":      serveMixed,
	"stream-drift":     streamDrift,
}

// metricSpec declares one reported metric.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them in an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"dataset.parse_s", "s"},
	{"bitmap.index_build_s", "s"},
	{"bitmap.and_ops", "count"},
	{"bitmap.popcounts", "count"},
	{"bitmap.lazy_rows", "count"},
	{"bitmap.arena_reuse_ratio", "ratio"},
	{"core.node_evals", "count"},
	{"core.survivor_ratio", "ratio"},
	{"core.sdad_calls", "count"},
	{"core.sdad_boxes", "count"},
	{"core.sdad_s", "s"},
	{"core.merge_yield", "ratio"},
	{"core.level1_s", "s"},
	{"core.level2_s", "s"},
	{"core.level3_s", "s"},
	{"core.expand_s", "s"},
	{"core.classify_s", "s"},
	{"core.parallel_speedup", "ratio"},
	{"topk.threshold_updates", "count"},
	{"serve.submit_s", "s"},
	{"serve.result_fetch_s", "s"},
	{"serve.hit_p50_s", "s"},
	{"serve.register_p50_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.queue_wait_s", "s"},
	{"serve.job_mine_s", "s"},
	{"serve.mine_executions", "count"},
	{"serve.index_builds", "count"},
	{"store.open_s", "s"},
	{"store.cold_decode_s", "s"},
	{"store.checkpoint_s", "s"},
	{"store.wal_fsyncs", "count"},
	{"store.fsync_per_register", "ratio"},
	{"stream.append_s", "s"},
	{"stream.remines", "count"},
	{"stream.skipped_mines", "count"},
	{"stream.gate_stable_ratio", "ratio"},
	{"stream.remine_node_evals", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.host_speed", "ratio"},
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// workers is the machine's CPU count: the closed-loop client count,
	// the service's worker pool and the miners' per-level fan-out.
	workers int
	// dir is a private scratch directory for on-disk state (the serve
	// workload's dataset store); removed when the run ends.
	dir string

	spans  *spanLog // nil in an untraced run
	calib  *calibrator
	tally  tally
	values map[string]float64
	notes  []string
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// note adds a human-readable line to the report.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setTail records the op_tail_s metric from latency samples, noting the
// percentile it sits at and the sample count.
func (r *run) setTail(samples []float64) {
	v, pct, ok := tail(samples)
	if !ok {
		r.note("op_tail_s: only %d samples, need %d", len(samples), 2*tailBeyond)
		return
	}
	r.set("op_tail_s", v)
	r.note("op_tail_s is p%.1f of %d samples", pct, len(samples))
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: mine-continuous, mine-categorical, serve-mixed or stream-drift")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Int("seconds", 25, "measured duration of the timed loop")
		traceArg = fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
		out      = fs.String("out", ".bench_build", "directory for spans and scratch state")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceArg == 1,
		workers:  runtime.NumCPU(),
		calib:    newCalibrator(runtime.NumCPU()),
		values:   make(map[string]float64),
	}
	for i := 0; i < 5; i++ {
		r.calib.measure()
	}
	if r.traced {
		r.spans = newSpanLog()
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r.dir = dir
	err = drive(r)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	speed := r.calib.speed()
	if !r.traced {
		r.atReferenceSpeed(speed)
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			fmt.Fprintf(stderr, "perfbench: reading peak RSS: %v\n", err)
			return 1
		}
		r.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports kilobytes
	} else {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.spans.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		r.note("spans: %d written to %s", r.spans.len(), path)
		r.set("bench.host_speed", speed)
	}
	res, err := r.result()
	if err == nil {
		err = r.print(stdout, res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// atReferenceSpeed rescales the end-to-end times and rates to the
// reference machine's speed, so that the host's drift does not read as a
// change of the system. The measured values stay in the report.
func (r *run) atReferenceSpeed(speed float64) {
	r.note("host speed %.3f of the reference machine (%d calibration samples); as measured: setup_s %.4g s, op_p50_s %.4g s, op_tail_s %.4g s, ops_per_s %.4g/s",
		speed, len(r.calib.samples), r.values["setup_s"], r.values["op_p50_s"], r.values["op_tail_s"], r.values["ops_per_s"])
	for _, name := range []string{"setup_s", "op_p50_s", "op_tail_s"} {
		if v, ok := r.values[name]; ok {
			r.values[name] = v * speed
		}
	}
	if v, ok := r.values["ops_per_s"]; ok {
		r.values["ops_per_s"] = ratio(v, speed)
	}
}

// specs returns the metrics the run reports.
func (r *run) specs() []metricSpec {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// result assembles the JSON result: every metric of the run's kind must
// have been measured, except per-layer metrics of layers the workload does
// not exercise, which read 0.
func (r *run) result() (result, error) {
	if r.tally.attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	res := result{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   make(map[string]metric),
	}
	for _, s := range r.specs() {
		v, ok := r.values[s.name]
		if !ok && !r.traced {
			return result{}, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// print writes the human-readable report and, last, the JSON result line.
func (r *run) print(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Fprintf(w, "workload %s seed %d trace %v workers %d\n", r.workload, r.seed, r.traced, r.workers)
	for _, s := range r.specs() {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", s.name, res.Metrics[s.name].Value, s.unit)
	}
	fmt.Fprintf(w, "  %-28s %14.6g (%d failed of %d attempted)\n", "error_ratio", r.tally.ratio(), res.Failed, res.Attempted)
	for _, reason := range r.tally.reasons {
		fmt.Fprintf(w, "  failure: %s\n", reason)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// allocMiB reports the bytes allocated on the heap since the process
// started, in MiB.
func allocMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
