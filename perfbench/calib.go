package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

const (
	// calibEvery is how often a timed loop pauses to run the calibration
	// kernel, which takes a few milliseconds.
	calibEvery = 250 * time.Millisecond
	// calibRefSeconds is the kernel's median duration on the reference
	// machine, a 2-vCPU x86 VM; end-to-end times are reported at that
	// machine's speed.
	calibRefSeconds = 0.0095
)

// calibrator times a fixed kernel that shares no code with the system
// under test: sorting floats, filling a hash map and streaming through a
// fresh buffer, on one goroutine per CPU at once, as the workloads load
// the machine. On a shared host the speed of the CPUs this run gets
// drifts by tens of percent over minutes; the kernel's median over the
// run measures that speed, and the end-to-end times are scaled by it.
type calibrator struct {
	src     []float64
	bufs    [][]float64
	samples []float64
	last    time.Time
}

func newCalibrator(workers int) *calibrator {
	rng := rand.New(rand.NewSource(1)) // fixed: the kernel is the same in every run
	c := &calibrator{src: make([]float64, 1<<15), bufs: make([][]float64, workers)}
	for i := range c.src {
		c.src[i] = rng.Float64()
	}
	for i := range c.bufs {
		c.bufs[i] = make([]float64, len(c.src))
	}
	return c
}

// measure runs the kernel once and records its duration.
func (c *calibrator) measure() {
	start := time.Now()
	var wg sync.WaitGroup
	for _, buf := range c.bufs {
		wg.Add(1)
		go func(buf []float64) {
			defer wg.Done()
			kernel(buf, c.src)
		}(buf)
	}
	wg.Wait()
	c.last = time.Now()
	c.samples = append(c.samples, c.last.Sub(start).Seconds())
}

// kernel is the calibration work of one goroutine. buf[0] keeps the
// result live.
func kernel(buf, src []float64) {
	copy(buf, src)
	sort.Float64s(buf)
	m := make(map[int]int)
	for i := 0; i < 1<<13; i++ {
		m[i*7919%65521] += i
	}
	b := make([]byte, 1<<21)
	for i := range b {
		b[i] = byte(i)
	}
	buf[0] += float64(len(m) + int(b[len(b)-1]))
}

// tick measures once calibEvery has passed since the last measurement.
func (c *calibrator) tick() {
	if time.Since(c.last) >= calibEvery {
		c.measure()
	}
}

// speed is this run's speed relative to the reference machine: above 1
// when the kernel ran faster than there.
func (c *calibrator) speed() float64 { return ratio(calibRefSeconds, median(c.samples)) }
