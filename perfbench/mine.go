package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

const (
	// A run repeats its set-up at least minSetupReps times and until the
	// repetitions took setupBudget, but at most maxSetupReps times;
	// setup_s is the median.
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = time.Second
	// maxLoop bounds any timed loop, so a run that cannot reach
	// minSamples still ends well inside its time limit.
	maxLoop = 100 * time.Second
	// tracedMines and serialMines size the traced run's fixed-count
	// loops, so its work counts do not depend on the machine's speed.
	tracedMines = 8
	serialMines = 4
	// mineBlock is the block size of the mine workloads' ops_per_s.
	mineBlock = 8
	// sdadTraceEvents sizes the decision tracer that times SDAD-CS calls.
	sdadTraceEvents = 1 << 17
)

func mineContinuous(r *run) error { return mineWorkload(r, continuousSpec(r.seed), 2) }

func mineCategorical(r *run) error { return mineWorkload(r, categoricalSpec(r.seed), 3) }

// mineWorkload is one caller mining the same dataset in a closed loop.
// Set-up parses the CSV and builds the bitmap index; every mine is checked
// against a single-worker reference mine computed at set-up.
func mineWorkload(r *run, spec datagen.UCISpec, depth int) error {
	csv, err := csvOf(datagen.Planted(spec))
	if err != nil {
		return err
	}
	var d *dataset.Dataset
	setup, err := r.repeatSetup(func() (float64, error) {
		trace := r.spans.id()
		var err error
		parse := r.spans.time(trace, 0, "dataset.parse", func() {
			d, err = dataset.FromCSV(bytes.NewReader(csv), dataset.CSVOptions{GroupColumn: groupColumn, Name: spec.Name})
		})
		if err != nil {
			return 0, fmt.Errorf("parsing generated CSV: %w", err)
		}
		build := r.spans.time(trace, 0, "bitmap.index_build", func() { bitmap.Shared(d) })
		return parse + build, nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	if got := len(d.ContinuousAttrs()); got != spec.Cont || d.NumAttrs() != spec.Cat+spec.Cont {
		return fmt.Errorf("parsed %d attributes (%d continuous), generated %d (%d)", d.NumAttrs(), got, spec.Cat+spec.Cont, spec.Cont)
	}

	cfg := core.Config{MaxDepth: depth, Workers: r.workers}
	serial := cfg
	serial.Workers = 1
	ref := core.Mine(d, serial)
	if len(ref.Contrasts) == 0 {
		return fmt.Errorf("reference mine found no contrasts in %s", spec.Name)
	}
	core.Mine(d, cfg) // warm-up: lazy state and caches fill before timing

	if !r.traced {
		lat, alloc := r.mineLoop(d, cfg, ref.Contrasts, r.seconds)
		r.set("op_p50_s", median(lat))
		r.setTail(lat)
		r.set("ops_per_s", blockRate(lat, mineBlock))
		r.set("alloc_mb_per_op", alloc)
		return nil
	}

	// Traced run. An untraced half-length loop gives the baseline the
	// overhead ratio and the parallel speed-up divide by.
	plain, _ := r.mineLoop(d, cfg, ref.Contrasts, r.seconds/2)
	snaps := make([]metrics.Snapshot, 0, tracedMines)
	walls := make([]float64, 0, tracedMines)
	for i := 0; i < tracedMines; i++ {
		c := cfg
		c.Metrics = metrics.New()
		var res core.Result
		start := time.Now()
		res = core.Mine(d, c)
		end := time.Now()
		r.spans.add(r.spans.id(), r.spans.id(), 0, "core.mine", start, end, levelAttrs(res.Metrics))
		r.tally.record(sameContrasts(res.Contrasts, ref.Contrasts))
		snaps = append(snaps, *res.Metrics)
		walls = append(walls, end.Sub(start).Seconds())
	}
	r.set("bench.trace_overhead_ratio", ratio(median(walls), median(plain)))

	serialWalls := make([]float64, 0, serialMines)
	for i := 0; i < serialMines; i++ {
		var res core.Result
		serialWalls = append(serialWalls, r.spans.time(r.spans.id(), 0, "core.mine_serial", func() { res = core.Mine(d, serial) }))
		r.tally.record(sameContrasts(res.Contrasts, ref.Contrasts))
	}
	r.set("core.parallel_speedup", ratio(median(serialWalls), median(plain)))

	// Classify runs inside Mine; time it alone over the same pre-filter
	// top-k list.
	unfiltered := cfg
	unfiltered.SkipMeaningfulFilter = true
	candidates := core.Mine(d, unfiltered).Contrasts
	for i := 0; i < 3; i++ {
		r.spans.time(r.spans.id(), 0, "core.classify", func() { core.Classify(d, candidates, 0.05) })
	}
	classify := median(r.spans.durations("core.classify"))
	r.set("core.classify_s", classify)
	r.set("core.sdad_s", r.sdadSeconds(d, serial))

	levels := r.coreLayer(snaps, float64(len(snaps)))
	r.set("core.expand_s", mean(walls)-levels-classify)
	r.set("dataset.parse_s", median(r.spans.durations("dataset.parse")))
	r.set("bitmap.index_build_s", median(r.spans.durations("bitmap.index_build")))
	return nil
}

// repeatSetup repeats a set-up step, which returns its duration in
// seconds, as the set-up constants prescribe and returns the median
// duration. The state the last repetition built is the one measured.
func (r *run) repeatSetup(step func() (float64, error)) (float64, error) {
	var secs []float64
	var total float64
	for len(secs) < maxSetupReps && (len(secs) < minSetupReps || total < setupBudget.Seconds()) {
		s, err := step()
		if err != nil {
			return 0, err
		}
		secs = append(secs, s)
		total += s
		r.calib.tick()
	}
	return median(secs), nil
}

// mineLoop mines d until dur has passed and at least minSamples mines
// ran, checking each result against want. It returns the per-mine
// latencies and the MiB allocated per mine.
func (r *run) mineLoop(d *dataset.Dataset, cfg core.Config, want []pattern.Contrast, dur time.Duration) (lat []float64, allocPerOp float64) {
	alloc0 := allocMiB()
	start := time.Now()
	for len(lat) < minSamples || time.Since(start) < dur {
		t := time.Now()
		res := core.Mine(d, cfg)
		lat = append(lat, time.Since(t).Seconds())
		r.tally.record(sameContrasts(res.Contrasts, want))
		r.calib.tick()
		if time.Since(start) > maxLoop {
			break
		}
	}
	return lat, (allocMiB() - alloc0) / float64(len(lat))
}

// sdadSeconds mines once with a decision tracer attached and sums the
// durations of its SDAD-CS call spans.
func (r *run) sdadSeconds(d *dataset.Dataset, cfg core.Config) float64 {
	tr := trace.New(sdadTraceEvents)
	cfg.Trace = tr
	res := core.Mine(d, cfg)
	if _, dropped, _ := tr.Stats(); dropped > 0 {
		r.note("core.sdad_s undercounts: the tracer dropped %d events", dropped)
	}
	var total float64
	for _, ev := range res.Trace.Events {
		if ev.Kind == trace.KindSDAD {
			total += ev.V3 / 1e9
		}
	}
	return total
}

// coreLayer sets the core, bitmap and top-k metrics from instrumentation
// snapshots that together cover mines mines: counts and level walls are
// per-mine means. It returns the summed mean level wall time.
func (r *run) coreLayer(snaps []metrics.Snapshot, mines float64) float64 {
	var and, pop, lazy, fresh, reused, nodes, survivors, calls, boxes, merges, attempts, updates float64
	var levels [3]float64
	for _, s := range snaps {
		and += float64(s.BitmapAndOps)
		pop += float64(s.BitmapPopcounts)
		lazy += float64(s.BitmapLazyRows)
		fresh += float64(s.ArenaFresh)
		reused += float64(s.ArenaReused)
		calls += float64(s.SDADCalls)
		boxes += float64(s.BoxesExplored)
		merges += float64(s.MergeOps)
		attempts += float64(s.MergeAttempts)
		updates += float64(s.ThresholdUpdates)
		for _, lv := range s.Levels {
			nodes += float64(lv.Nodes)
			survivors += float64(lv.Survivors)
			if lv.Level <= len(levels) {
				levels[lv.Level-1] += float64(lv.WallNanos) / 1e9
			}
		}
	}
	r.set("bitmap.and_ops", ratio(and, mines))
	r.set("bitmap.popcounts", ratio(pop, mines))
	r.set("bitmap.lazy_rows", ratio(lazy, mines))
	r.set("bitmap.arena_reuse_ratio", ratio(reused, fresh+reused))
	r.set("core.node_evals", ratio(nodes, mines))
	r.set("core.survivor_ratio", ratio(survivors, nodes))
	r.set("core.sdad_calls", ratio(calls, mines))
	r.set("core.sdad_boxes", ratio(boxes, mines))
	r.set("core.merge_yield", ratio(merges, attempts))
	r.set("topk.threshold_updates", ratio(updates, mines))
	var sum float64
	for i, l := range levels {
		r.set(fmt.Sprintf("core.level%d_s", i+1), ratio(l, mines))
		sum += ratio(l, mines)
	}
	return sum
}

// levelAttrs turns a mine's level walls and work counts into span
// attributes.
func levelAttrs(s *metrics.Snapshot) map[string]float64 {
	attrs := map[string]float64{
		"sdad_calls":   float64(s.SDADCalls),
		"and_ops":      float64(s.BitmapAndOps),
		"lazy_rows":    float64(s.BitmapLazyRows),
		"topk_updates": float64(s.ThresholdUpdates),
	}
	for _, lv := range s.Levels {
		attrs[fmt.Sprintf("level%d_s", lv.Level)] = float64(lv.WallNanos) / 1e9
		attrs[fmt.Sprintf("level%d_nodes", lv.Level)] = float64(lv.Nodes)
	}
	return attrs
}

// sameContrasts reports whether got has the same contrast keys, per-group
// counts and scores, in the same order, as want.
func sameContrasts(got, want []pattern.Contrast) error {
	if len(got) != len(want) {
		return fmt.Errorf("wrong output: %d contrasts, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Set.Key() != w.Set.Key() || g.Score != w.Score || !slices.Equal(g.Supports.Count, w.Supports.Count) {
			return fmt.Errorf("wrong output: contrast %d is %s (score %v, counts %v), want %s (score %v, counts %v)",
				i, g.Set.Key(), g.Score, g.Supports.Count, w.Set.Key(), w.Score, w.Supports.Count)
		}
	}
	return nil
}
