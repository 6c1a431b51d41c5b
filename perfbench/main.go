// Command perfbench is the repository benchmark: four named workloads over
// the public API of internal/qntn, internal/netsim, internal/routing,
// internal/quantum/protocol and internal/telemetry, plus the serve daemon's
// HTTP handler. Run it from the repository root through run.sh, which builds
// it inside the checkout:
//
//	bash perfbench/run.sh --workload walker1k-coverage --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare base.jsonl new.jsonl
//	bash perfbench/run.sh pin
//	bash perfbench/run.sh capacity
//
// A run prints one "record" line (every metric with its sample count,
// median and quartiles, plus host facts) and, as its last line, the result
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
// from a separate traced pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "pin":
			os.Exit(pinMain(os.Args[2:]))
		case "capacity":
			os.Exit(capacityMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// bench is one workload. setup builds its scenarios and caches and runs a
// warm-up pass, replacing any state a previous setup built; measure runs
// untraced operations until the deadline, and may be called again after
// another setup; traced runs the traced pass and fills the per-layer
// metrics; close releases everything.
type bench interface {
	setup() error
	measure(deadline time.Time, r *result)
	traced(deadline time.Time, r *result, rec *recorder)
	close()
}

// opSample is one operation of a workload: a library call for the batch
// workloads, a query for the daemon. latency and ttfb count from when the
// operation was due; busy from when it started. alloc is the bytes the
// operation allocated, when it ran alone (0 for concurrent operations).
type opSample struct {
	latency, ttfb, busy time.Duration
	steps, requests     int
	alloc               uint64
	// scale maps the operation's times to the nominal host (calib.go).
	scale float64
}

// allocated returns the bytes allocated by the process so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// result collects one run's measurements.
type result struct {
	setup         []float64
	ops           []opSample
	attempted     int
	failed        int
	allocBytes    uint64
	retainedBytes uint64
	// setupScale maps each set-up time to the nominal host; calib
	// summarizes the reference durations (ms) of the run (calib.go).
	setupScale []float64
	calib      summary
	layers     map[string]float64
	layerN     map[string]int
}

// fail counts a failed operation and says why on standard error.
func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// setLayer records a per-layer metric from its per-pass samples (median)
// or, for counts measured once, a single sample.
func (r *result) setLayer(name string, samples ...float64) {
	if len(samples) == 0 {
		return
	}
	r.layers[name] = median(samples)
	r.layerN[name] = len(samples)
}

func newBench(name string, cfg *config, seed int64) (bench, error) {
	switch name {
	case "walker1k-coverage":
		return newWalkerBench(cfg, seed), nil
	case "day108-coverage":
		return newDay108Bench(seed), nil
	case "serve108-protocol":
		return newServeBench(cfg, seed)
	case "daemon-traffic":
		return newDaemonBench(cfg, seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", "", "append the record line to this file")
	spans := fs.String("spans", "", "write the traced pass's spans to this file (default .bench_build/spans/<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(cfg.GOMAXPROCS)
	b, err := newBench(*workload, cfg, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer b.close()

	r := &result{layers: make(map[string]float64), layerN: make(map[string]int)}
	window := time.Duration(*seconds * float64(time.Second))
	var metrics []metric
	if *trace == 1 {
		for range cfg.SetupReps {
			t0 := time.Now()
			if err := b.setup(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
				return 1
			}
			r.setup = append(r.setup, time.Since(t0).Seconds())
		}
		runtime.GC()
		rec := newRecorder()
		b.traced(time.Now().Add(window), r, rec)
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s.jsonl", *workload)
		}
		if err := rec.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		}
		metrics = layerMetrics(r)
	} else {
		cal := &calibrator{}
		if err := measureCalibrated(b, window, r, cal); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		r.calib = summarize(cal.times)
		var after runtime.MemStats
		// Two collections: the first moves sync.Pool contents to the victim
		// cache, the second frees them, so only what the program keeps
		// reachable remains.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		r.retainedBytes = after.HeapAlloc
		metrics = endToEndMetrics(r)
	}
	if r.attempted == 0 {
		r.fail("no operation completed in %v", window)
		r.attempted = 1
	}
	rec := record{
		Workload:  *workload,
		Seed:      *seed,
		Seconds:   *seconds,
		Trace:     *trace,
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]recordMetric),
		Host:      hostFacts(),
	}
	last := resultLine{Correct: rec.Correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]lineMetric)}
	for _, m := range metrics {
		rec.Metrics[m.name] = recordMetric{Value: m.value, Unit: m.unit, summary: m.sum}
		if !m.extra {
			last.Metrics[m.name] = lineMetric{Value: m.value, Unit: m.unit}
		}
	}
	recLine, err := json.Marshal(struct {
		Record record `json:"record"`
	}{rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		if err := appendLine(*out, recLine); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	lastLine, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", recLine, lastLine)
	return 0
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
