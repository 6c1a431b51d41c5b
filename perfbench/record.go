package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure. extra metrics go only to the record line,
// not the result line: they are not in BENCHMARK.json because they are zero
// by design (error_frac), undefined on some workloads (requests_per_s) or
// the unscaled wall-clock twins of reported times (wall_*, calib_ms).
type metric struct {
	name  string
	unit  string
	value float64
	sum   summary
	extra bool
}

// layerDef names a per-layer metric, in BENCHMARK.json order.
type layerDef struct{ name, unit, better string }

// layerDefs lists every per-layer metric. A traced run reports all of them;
// a layer the workload bypasses reads 0.
var layerDefs = []layerDef{
	{"ephemeris.busy_s", "s", "lower"},
	{"ephemeris.movers", "count", "lower"},
	{"candidates.busy_s", "s", "lower"},
	{"candidates.visited_frac", "frac", "lower"},
	{"physics.busy_s", "s", "lower"},
	{"physics.pairs", "count", "lower"},
	{"physics.admit_frac", "frac", "higher"},
	{"physics.horizon_reject_frac", "frac", "higher"},
	{"physics.range_reject_frac", "frac", "higher"},
	{"graph.busy_s", "s", "lower"},
	{"graph.edges", "count", "lower"},
	{"bridged.busy_s", "s", "lower"},
	{"windows.busy_s", "s", "lower"},
	{"windows.count", "count", "lower"},
	{"eventloop.busy_s", "s", "lower"},
	{"routing.bf_busy_s", "s", "lower"},
	{"routing.bf_rounds", "count", "lower"},
	{"routing.path_busy_s", "s", "lower"},
	{"protocol.busy_s", "s", "lower"},
	{"protocol.disjoint_busy_s", "s", "lower"},
	{"protocol.swaps", "count", "lower"},
	{"protocol.swap_fail_frac", "frac", "lower"},
	{"protocol.purify_accept_frac", "frac", "higher"},
	{"traffic.busy_s", "s", "lower"},
	{"traffic.evals_per_arrival", "count", "lower"},
	{"traffic.max_queue_depth", "count", "lower"},
	{"ndjson.busy_s", "s", "lower"},
	{"ndjson.bytes", "bytes", "lower"},
	{"http.busy_s", "s", "lower"},
	{"setup.ephemeris_cache_s", "s", "lower"},
	{"setup.scenario_s", "s", "lower"},
	{"loadgen.late_ms", "ms", "lower"},
	{"trace.unattributed_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics derives the untraced run's figures. Rates are per
// operation (topology instants or requests over the operation's busy
// time), reported at the fast quartile: the 75th percentile of the
// per-operation rates, i.e. the 25th percentile of busy time, which
// interference from other tenants of the host disturbs least. Latencies
// count from each operation's due time. Times and rates are scaled to the
// nominal host (calib.go); the wall-clock figures go to the record line
// only. Allocation is the median per operation where operations ran alone,
// else the window's total over the operation count.
func endToEndMetrics(r *result) []metric {
	// Each figure keeps its wall-clock samples and their scaled twins.
	var steps, reqs, lat, ttfb [2][]float64
	var allocs []float64
	for _, op := range r.ops {
		if op.alloc > 0 {
			allocs = append(allocs, float64(op.alloc)/1e6)
		}
		if b := op.busy.Seconds(); b > 0 {
			steps[0] = append(steps[0], float64(op.steps)/b)
			steps[1] = append(steps[1], float64(op.steps)/(b*op.scale))
			if op.requests > 0 {
				reqs[0] = append(reqs[0], float64(op.requests)/b)
				reqs[1] = append(reqs[1], float64(op.requests)/(b*op.scale))
			}
		}
		lat[0] = append(lat[0], ms(op.latency))
		lat[1] = append(lat[1], ms(op.latency)*op.scale)
		ttfb[0] = append(ttfb[0], ms(op.ttfb))
		ttfb[1] = append(ttfb[1], ms(op.ttfb)*op.scale)
	}
	var setup [2][]float64
	for i, s := range r.setup {
		setup[0] = append(setup[0], s)
		setup[1] = append(setup[1], s*r.setupScale[i])
	}
	allocSum := summarize(allocs)
	alloc := allocSum.P50
	if len(allocs) == 0 || len(allocs) < len(r.ops) {
		alloc = float64(r.allocBytes) / float64(max(len(r.ops), 1)) / 1e6
		allocSum = summary{N: len(r.ops), P25: alloc, P50: alloc, P75: alloc}
	}
	retained := float64(r.retainedBytes) / 1e6
	one := func(v float64, n int) summary { return summary{N: n, P25: v, P50: v, P75: v} }
	var out []metric
	// timed reports stat of the scaled samples and, on the record line
	// only, of the wall-clock ones.
	timed := func(name, unit string, xs [2][]float64, stat func([]float64) float64, extra bool) {
		out = append(out,
			metric{name: name, unit: unit, value: stat(xs[1]), sum: summarize(xs[1]), extra: extra},
			metric{name: "wall_" + name, unit: unit, value: stat(xs[0]), sum: summarize(xs[0]), extra: true})
	}
	fast := func(xs []float64) float64 { return percentile(xs, 0.75) }
	p90 := func(xs []float64) float64 { return percentile(xs, 0.9) }
	timed("setup_s", "s", setup, median, false)
	timed("steps_per_s", "1/s", steps, fast, false)
	timed("query_p50_ms", "ms", lat, median, false)
	timed("query_p90_ms", "ms", lat, p90, false)
	timed("query_ttfb_p50_ms", "ms", ttfb, median, false)
	if len(reqs[0]) > 0 {
		timed("requests_per_s", "1/s", reqs, fast, true)
	}
	return append(out,
		metric{name: "alloc_mb", unit: "MB", value: alloc, sum: allocSum},
		metric{name: "retained_heap_mb", unit: "MB", value: retained, sum: one(retained, 1)},
		metric{name: "calib_ms", unit: "ms", value: r.calib.P50, sum: r.calib, extra: true},
		metric{name: "error_frac", unit: "frac", value: float64(r.failed) / float64(max(r.attempted, 1)), sum: summary{N: r.attempted}, extra: true},
	)
}

// layerMetrics reports every per-layer metric of the traced run.
func layerMetrics(r *result) []metric {
	out := make([]metric, 0, len(layerDefs))
	for _, d := range layerDefs {
		v := r.layers[d.name]
		out = append(out, metric{name: d.name, unit: d.unit, value: v, sum: summary{N: r.layerN[d.name], P50: v}})
	}
	return out
}

// record is the full result of one run, as written to the record line and
// read back by compare.
type record struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     int                     `json:"trace"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]recordMetric `json:"metrics"`
	Host      host                    `json:"host"`
}

type recordMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host holds the facts a ledger entry needs to be comparable.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func hostFacts() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "+modified"
		}
	}
	return h
}

// sourceDigest hashes the Go sources, module files and JSON configuration
// under root (skipping dot directories), so records from a checkout
// without version control still identify the code they measured.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json":
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		io.WriteString(h, filepath.ToSlash(f)+"\x00")
		fh, err := os.Open(f)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, fh)
		fh.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
