package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/stream"
)

const (
	streamWindow = 1000
	streamEvery  = 250
	// driftPeriod is the trace's period: the planted failure mode is on
	// for the middle third of each period and off for the rest.
	driftPeriod = 3000
	// tracedAppends fixes the traced phase's length after the first
	// window fills, so its work counts do not depend on the machine's
	// speed.
	tracedAppends = 2 * driftPeriod
)

// driftTrace is an i.i.d. manufacturing-like row stream: every row is
// drawn from a generated manufacturing dataset. While the failure mode is
// on, a row keeps its generated pass/fail label, which carries the planted
// root cause; while it is off, labels are drawn independently of the row
// at the same failure rate.
type driftTrace struct {
	cont     [][]float64
	cat      [][]string
	groups   []string
	failRate float64
	rng      *rand.Rand
	n        int // rows emitted
}

// newDriftTrace builds the seeded trace and the schema of its rows.
func newDriftTrace(seed int64) (*driftTrace, stream.Schema) {
	d := streamPool(seed)
	schema := stream.Schema{Name: "stream-drift"}
	var contAttrs, catAttrs []int
	for a := 0; a < d.NumAttrs(); a++ {
		if d.Attr(a).Kind == dataset.Continuous {
			contAttrs = append(contAttrs, a)
			schema.Continuous = append(schema.Continuous, d.Attr(a).Name)
		} else {
			catAttrs = append(catAttrs, a)
			schema.Categorical = append(schema.Categorical, d.Attr(a).Name)
		}
	}
	t := &driftTrace{rng: rand.New(rand.NewSource(subSeed(seed, 7)))}
	failed := 0
	for row := 0; row < d.Rows(); row++ {
		cont := make([]float64, len(contAttrs))
		for i, a := range contAttrs {
			cont[i] = d.Cont(a, row)
		}
		cat := make([]string, len(catAttrs))
		for i, a := range catAttrs {
			cat[i] = d.CatValue(a, row)
		}
		g := d.GroupName(d.Group(row))
		if g == "Failed" {
			failed++
		}
		t.cont = append(t.cont, cont)
		t.cat = append(t.cat, cat)
		t.groups = append(t.groups, g)
	}
	t.failRate = float64(failed) / float64(d.Rows())
	return t, schema
}

// next returns the next row. The monitor copies the values, so the pool's
// slices are shared.
func (t *driftTrace) next() ([]float64, []string, string) {
	row := t.rng.Intn(len(t.groups))
	group := t.groups[row]
	if phase := t.n % driftPeriod; phase < driftPeriod/3 || phase >= 2*driftPeriod/3 {
		group = "Population"
		if t.rng.Float64() < t.failRate {
			group = "Failed"
		}
	}
	t.n++
	return t.cont[row], t.cat[row], group
}

// streamDrift is one caller appending the drift trace to a sliding-window
// monitor that re-mines every streamEvery rows.
func streamDrift(r *run) error {
	mining := core.Config{MaxDepth: 2, Workers: r.workers}
	cfg := stream.Config{WindowSize: streamWindow, MineEvery: streamEvery, Mining: mining}

	// Set-up, repeated: build a monitor and fill its first window, which
	// runs the first re-mines.
	var (
		m  *stream.Monitor
		tr *driftTrace
	)
	setup, err := r.repeatSetup(func() (float64, error) {
		var (
			secs float64
			err  error
		)
		m, tr, secs, err = r.filledMonitor(cfg)
		return secs, err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	if !r.traced {
		appends, remines, alloc := r.appendLoop(m, tr, r.seconds, nil)
		r.set("op_p50_s", median(remines))
		r.setTail(remines)
		r.set("ops_per_s", blockRate(appends, streamEvery))
		r.set("alloc_mb_per_op", alloc)
		return r.checkCurrent(m, mining)
	}

	// Traced run: the untraced half-length loop is the overhead baseline;
	// the traced phase replays the trace from its start on a fresh,
	// instrumented monitor for a fixed number of appends.
	_, plain, _ := r.appendLoop(m, tr, r.seconds/2, nil)
	if err := r.checkCurrent(m, mining); err != nil {
		return err
	}
	rec := metrics.New()
	cfg.Mining.Metrics = rec
	m, tr, _, err = r.filledMonitor(cfg)
	if err != nil {
		return err
	}
	_, remines, _ := r.appendLoop(m, tr, 0, r.spans)
	if err := r.checkCurrent(m, mining); err != nil {
		return err
	}
	s := rec.Snapshot()
	r.set("bench.trace_overhead_ratio", ratio(median(remines), median(plain)))
	r.coreLayer([]metrics.Snapshot{s}, float64(m.Mines()))
	r.set("stream.append_s", median(r.spans.durations("stream.append")))
	r.set("stream.remines", float64(m.Mines()))
	r.set("stream.skipped_mines", float64(m.SkippedMines()))
	r.set("stream.gate_stable_ratio", ratio(float64(s.GateStableNodes), float64(s.GateStableNodes+s.GateDirtyNodes)))
	r.set("stream.remine_node_evals", ratio(float64(s.NodeEval.Count), float64(m.Mines())))
	return nil
}

// filledMonitor builds a monitor and appends the trace's first window,
// timed together as one stream.setup span.
func (r *run) filledMonitor(cfg stream.Config) (*stream.Monitor, *driftTrace, float64, error) {
	tr, schema := newDriftTrace(r.seed)
	var (
		m   *stream.Monitor
		err error
	)
	secs := r.spans.time(r.spans.id(), 0, "stream.setup", func() {
		m, err = stream.NewMonitor(schema, cfg)
		for i := 0; err == nil && i < streamWindow; i++ {
			_, err = m.Append(tr.next())
		}
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("filling the first window: %w", err)
	}
	return m, tr, secs, nil
}

// appendLoop appends trace rows to m. With traced nil it runs until dur
// has passed and at least minSamples appends re-mined; otherwise it runs
// tracedAppends appends, recording each as a stream.append or
// stream.remine span. It returns the latencies of every append and of
// the appends that re-mined, and the MiB allocated per append.
func (r *run) appendLoop(m *stream.Monitor, tr *driftTrace, dur time.Duration, traced *spanLog) (appends, remines []float64, allocPerOp float64) {
	alloc0 := allocMiB()
	start := time.Now()
	for {
		if traced != nil {
			if len(appends) >= tracedAppends {
				break
			}
		} else if elapsed := time.Since(start); elapsed > maxLoop || (elapsed >= dur && len(remines) >= minSamples) {
			break
		}
		cont, cat, group := tr.next()
		before := m.Mines() + m.SkippedMines()
		t0 := time.Now()
		_, err := m.Append(cont, cat, group)
		t1 := time.Now()
		appends = append(appends, t1.Sub(t0).Seconds())
		if errors.Is(err, stream.ErrWindowNotMineable) {
			err = fmt.Errorf("append %d: %w", tr.n, err)
		}
		r.tally.record(err)
		name := "stream.append"
		if m.Mines()+m.SkippedMines() != before {
			remines = append(remines, t1.Sub(t0).Seconds())
			name = "stream.remine"
		}
		traced.add(traced.id(), traced.id(), 0, name, t0, t1, nil)
		r.calib.tick()
	}
	return appends, remines, (allocMiB() - alloc0) / float64(len(appends))
}

// checkCurrent checks, outside any timed region, that the monitor's
// current patterns equal a full mine over its current window.
func (r *run) checkCurrent(m *stream.Monitor, mining core.Config) error {
	d := m.CurrentData()
	if d == nil {
		return errors.New("the monitor never mined a window")
	}
	if err := sameContrasts(m.Current(), core.Mine(d, mining).Contrasts); err != nil {
		r.tally.fail(fmt.Errorf("stream: %w", err))
	}
	return nil
}
