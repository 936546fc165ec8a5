package main

import (
	"fmt"
	"os"
	"slices"
	"time"
)

// The hosts the benchmark runs on are shared virtual machines whose speed
// drifts by tens of percent from one minute to the next, for identical
// work. So every end-to-end time is reported at a reference host speed, a
// calibration measured in the same run: the benchmark times a fixed
// computation of its own — the calibration chunk, which no engine change
// can move — at quiet points of the run (before each set-up repetition,
// between closed-loop operations, around the open-loop nominal phase), and
// divides times by the run's median chunk time over the reference chunk
// time. Over
// four minutes of a fixed engine workload on a 2-vCPU VM, the chunk's
// time tracked the workload's over 8 s windows with correlation 0.96, and
// dividing by it cut the workload's variation from 11% to 4%.
const (
	calibSteps = 40_000                 // ~0.16 ms of work per chunk
	calibEvery = 250 * time.Millisecond // closed loops sample at most this often
	calibBurst = 5                      // chunks per sample
	// calibRefNS is the chunk's time on the reference host, a quiet
	// 2-vCPU Xeon VM.
	calibRefNS = 160_000.0
)

// calibBuf is the chunk's working set: 256 KiB, about an L2 cache. It is
// part of every run's heap_live_mb.
var calibBuf = make([]uint32, 1<<16)

// calibSink keeps the chunk's result alive.
var calibSink float64

// calibChunk runs the fixed computation once: xorshift-addressed
// read-modify-writes over calibBuf mixed with floating-point work.
func calibChunk() {
	x := uint32(2463534242)
	acc := 0.0
	mask := uint32(len(calibBuf) - 1)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & mask
		calibBuf[j] += x
		acc += float64(calibBuf[(j*7)&mask]) * 1e-9
	}
	calibSink += acc
}

// calibrator accumulates calibration samples over a run.
type calibrator struct {
	bursts []float64     // mean chunk time of each burst, ns
	spent  time.Duration // wall time spent sampling, to leave out of rates
	last   time.Time
}

// sample times one burst of chunks.
func (c *calibrator) sample() {
	start := time.Now()
	for i := 0; i < calibBurst; i++ {
		calibChunk()
	}
	d := time.Since(start)
	c.bursts = append(c.bursts, float64(d)/calibBurst)
	c.spent += d
	c.last = time.Now()
}

// maybe samples when calibEvery has passed since the last sample.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calibEvery {
		c.sample()
	}
}

// slowdown is the run's median burst time per chunk over the reference
// chunk time: above 1 on a host slower than the reference. The median
// keeps a burst that met a passing stall from moving the run.
func (c *calibrator) slowdown() float64 {
	if len(c.bursts) == 0 {
		return 1
	}
	return median(c.bursts) / calibRefNS
}

// normalize rescales the run's end-to-end times to the reference host
// speed: times divide by the slowdown, rates multiply by it, except the
// rates named in keep. The raw values go to standard error.
func (c *calibrator) normalize(r *report, keep ...string) {
	k := c.slowdown()
	fmt.Fprintf(os.Stderr, "perfbench: host slowdown %.3f over %d calibration bursts; raw:", k, len(c.bursts))
	for _, d := range endToEnd {
		v := r.metrics[d.name]
		fmt.Fprintf(os.Stderr, " %s=%.6g", d.name, v)
		switch {
		case slices.Contains(keep, d.name):
			r.notes[d.name] += " as measured"
		case d.unit == "s" || d.unit == "ms":
			r.metrics[d.name] = v / k
		case d.unit == "1/s":
			r.metrics[d.name] = v * k
		}
	}
	fmt.Fprintln(os.Stderr)
}
