package main

import (
	"math"
	"runtime"
	"time"
)

// The host the benchmark runs on is shared: as neighbours load the
// processor, its speed swings by tens of percent in bursts that last
// seconds. The untraced run therefore measures in segments of calibSegment
// and, around them, times a fixed reference computation that shares no code
// with the program. Each operation's times are scaled by the reference's
// nominal duration over its median duration around the operation's
// segment: a time t measured while the reference took c is reported as
// t × calibNominal / c, and rates scale the other way. The wall-clock
// figures stay in the record line, prefixed "wall_", next to calib_ms.
//
// The reference is floating-point arithmetic in eight independent chains,
// which keeps the core's execution ports busy the way the workloads'
// propagation and link-physics loops do. Ports are what a neighbour on the
// same physical core takes away: while walker1k-coverage ran 2.2 times
// slower than its best, this reference slowed in step with it (log-log
// slope 1.16), while a kernel bound by memory latency slowed only a third
// as much and a dependent chain of sin/cos even less.

const (
	// calibNominal is the reference computation's duration on the host the
	// bounds were set on (2 vCPUs of a Xeon Sapphire Rapids server) when
	// nothing else loads it, so scaled figures read close to that host's
	// wall-clock ones.
	calibNominal = 2.4 * float64(time.Millisecond)
	// calibReps is how many times the reference runs at each calibration.
	calibReps = 2
	// calibSegment is the measured time between two calibrations, short
	// against the host's bursts of interference.
	calibSegment = 500 * time.Millisecond
	// setupEvery is the measured time between two set-ups.
	setupEvery = 2 * time.Second
)

// calibrator holds the reference durations of a run.
type calibrator struct {
	sink float64
	// times is every reference duration so far (ms).
	times []float64
}

// sample runs the reference computation calibReps times and returns the
// durations (ms).
func (c *calibrator) sample() []float64 {
	out := make([]float64, calibReps)
	for i := range out {
		t0 := time.Now()
		c.run()
		out[i] = ms(time.Since(t0))
	}
	c.times = append(c.times, out...)
	return out
}

// scale maps a time measured between two samples to the nominal host.
func scale(before, after []float64) float64 {
	return calibNominal / float64(time.Millisecond) / median(append(append([]float64(nil), before...), after...))
}

// run performs the reference computation once.
func (c *calibrator) run() {
	var a [8]float64
	for i := range a {
		a[i] = float64(i) + 1 + c.sink*1e-12
	}
	for range 1 << 18 {
		for i := range a {
			a[i] = a[i]*0.999999 + 1e-6
		}
		a[0] += math.Sqrt(a[1])
		a[2] += math.Sqrt(a[3])
		a[4] -= math.Sqrt(a[5])
		a[6] -= math.Sqrt(a[7])
	}
	for _, v := range a {
		c.sink += v
	}
}

// measureCalibrated runs b's untraced window in segments of calibSegment
// and samples the reference computation before and after each; every
// operation and set-up gets the scale of the samples around it. Every
// setupEvery it sets b up afresh, timing the set-up, so that the set-up
// samples spread over the run like the operations do. Only segment time
// counts toward the window.
func measureCalibrated(b bench, window time.Duration, r *result, c *calibrator) error {
	before := c.sample()
	for left := window; left > 0; {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		after := c.sample()
		r.setupScale = append(r.setupScale, scale(before, after))
		before = after
		runtime.GC()
		for round := min(left, setupEvery); round > 0; {
			seg := min(round, calibSegment)
			n, t1 := len(r.ops), time.Now()
			b.measure(t1.Add(seg), r)
			d := min(time.Since(t1), seg)
			round, left = round-d, left-d
			after = c.sample()
			k := scale(before, after)
			for i := n; i < len(r.ops); i++ {
				r.ops[i].scale = k
			}
			before = after
		}
	}
	return nil
}
