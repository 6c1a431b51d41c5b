package qntn

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/routing"
	"qntn/internal/runner"
)

// CoveragePoint is one mark of the paper's Fig. 6 sweep.
type CoveragePoint struct {
	Satellites int
	Result     CoverageResult
}

// PaperSweepSizes returns the paper's constellation sizes: 6, 12, ..., 108.
func PaperSweepSizes() []int {
	sizes := make([]int, 0, 18)
	for n := 6; n <= 108; n += 6 {
		sizes = append(sizes, n)
	}
	return sizes
}

// coverageChunkSteps is the number of topology steps one worker task
// evaluates. The partition is fixed (independent of the worker count), so
// the chunk merge — and therefore the result — is bit-identical for any
// parallelism.
const coverageChunkSteps = 32

// largestPaperSize checks every size of a sweep against the paper
// constellation rule (orbit.CheckPaperSize) and returns the largest, the
// catalog the sweep propagates: each size is answered as a prefix of it, so
// a size the rule rejects alone must not pass because a larger one is
// requested beside it.
func largestPaperSize(sizes []int) (int, error) {
	maxN := 0
	for _, n := range sizes {
		if err := orbit.CheckPaperSize(n); err != nil {
			return 0, fmt.Errorf("qntn: sweep size: %w", err)
		}
		maxN = max(maxN, n)
	}
	return maxN, nil
}

// CoverageSweep computes the Fig. 6 curve — full-period coverage percentage
// as a function of constellation size — for every requested prefix of the
// Table II catalog, fanning the time axis out over a bounded worker pool
// (workers <= 0 selects GOMAXPROCS).
//
// Because the paper's constellations are nested prefixes of Table II, the
// sweep propagates the full catalog once (EphemerisCache) and takes one
// standard stepped snapshot of the largest size per instant (spatial index,
// fault gate and snapshot counters included). Ground hosts lead the node
// order and each link depends on its two endpoints alone, so the snapshot
// of size n is this one restricted to its first len(ground)+n nodes, and
// each size is answered by Coverage's bridged rule over that prefix. Steps
// are independent, so they are evaluated in fixed contiguous chunks by the
// worker pool and the per-chunk partial results are merged in time order —
// exactly equivalent to running the stepped Scenario.Coverage per size,
// which the test suite asserts.
func CoverageSweep(p Params, sizes []int, duration time.Duration, workers int) ([]CoveragePoint, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("qntn: empty size list")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("qntn: non-positive duration %v", duration)
	}
	maxN, err := largestPaperSize(sizes)
	if err != nil {
		return nil, err
	}
	step := p.TopologyStep()
	grid := coverageGrid(step, duration)
	times := make([]time.Duration, grid.steps)
	for k := range times {
		times[k] = grid.at(k)
	}
	cache, err := NewEphemerisCache(maxN, p, times)
	if err != nil {
		return nil, err
	}
	sc, err := cache.Scenario(maxN)
	if err != nil {
		return nil, err
	}
	if err := sc.checkFaultHorizon(grid.at(grid.steps - 1)); err != nil {
		return nil, err
	}
	nGround := sc.Net.NumNodes() - len(sc.relays)

	numChunks := (len(times) + coverageChunkSteps - 1) / coverageChunkSteps
	partials := make([][]CoverageResult, numChunks)
	// Chunks outnumber workers; a worker's next chunk reuses its graph.
	var graphs sync.Pool
	err = runner.Map(context.Background(), numChunks, workers, func(_ context.Context, ci int) error {
		lo := ci * coverageChunkSteps
		hi := min(lo+coverageChunkSteps, len(times))
		res := make([]CoverageResult, len(sizes))
		g, _ := graphs.Get().(*routing.Graph)
		if g == nil {
			g = routing.NewGraph()
		}
		g.Reset()
		defer graphs.Put(g)
		var uf unionFind

		// Scenario-shared instrumentation: counters are atomic (order
		// invariant), and events carry the global step index, so the chunk
		// partition leaves telemetry output worker-count invariant.
		var st *netsim.SnapshotStats
		var label string
		if sc.tel != nil {
			st = new(netsim.SnapshotStats)
			label = fmt.Sprintf("coverage-sweep/%s/%d", sc.Arch, len(sc.RelayIDs))
		}

		for k, at := range times[lo:hi] {
			if err := sc.GraphInto(g, at, st); err != nil {
				return err
			}
			sc.recordStepEvent(label, lo+k, at, st, nil)
			for ri, n := range sizes {
				accumulate(&res[ri], at, step, sc.bridgedInto(&uf, g, nGround+n))
			}
		}
		partials[ci] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge chunks in time order; joining intervals that touch across a
	// chunk boundary reproduces the sequential accumulation exactly.
	points := make([]CoveragePoint, len(sizes))
	for ri, n := range sizes {
		merged := CoverageResult{Total: duration}
		for _, part := range partials {
			r := part[ri]
			merged.Steps += r.Steps
			merged.CoveredSteps += r.CoveredSteps
			merged.Covered += r.Covered
			for _, iv := range r.Intervals {
				if k := len(merged.Intervals); k > 0 && merged.Intervals[k-1].End == iv.Start {
					merged.Intervals[k-1].End = iv.End
				} else {
					merged.Intervals = append(merged.Intervals, iv)
				}
			}
		}
		points[ri] = CoveragePoint{Satellites: n, Result: merged}
	}
	return points, nil
}

// ServePoint is one mark of the paper's Fig. 7 / Fig. 8 sweeps.
type ServePoint struct {
	Satellites int
	Result     ServeResult
}

// ServeSweep runs the serve experiment (Fig. 7: served percentage; Fig. 8:
// average fidelity) for each constellation size, fanning sizes out over a
// bounded worker pool (workers <= 0 selects GOMAXPROCS). Sizes are
// evaluated independently with identical workload seeds so the request
// sequences match across sizes — which is also what makes the fan-out
// trivially deterministic: every size owns its output slot and its own
// Workload generator, and all sizes share one immutable propagated
// ephemeris instead of re-propagating the constellation per point.
func ServeSweep(p Params, sizes []int, cfg ServeConfig, workers int) ([]ServePoint, error) {
	if len(sizes) == 0 {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	maxN, err := largestPaperSize(sizes)
	if err != nil {
		return nil, err
	}
	cache, err := NewEphemerisCache(maxN, p, cfg.SampleTimes(p))
	if err != nil {
		return nil, err
	}
	// Each size writes telemetry into its own shard — sharded by task, not
	// by worker, so the partition is scheduling-independent — and the shards
	// merge back in size order after the fan-out. Nil when uninstrumented.
	shards := p.Telemetry.Shards(len(sizes))
	points := make([]ServePoint, len(sizes))
	err = runner.Map(context.Background(), len(sizes), workers, func(_ context.Context, i int) error {
		sc, err := cache.Scenario(sizes[i])
		if err != nil {
			return err
		}
		if shards != nil {
			sc.Instrument(shards[i])
		}
		res, err := sc.RunServe(cfg)
		if err != nil {
			return fmt.Errorf("qntn: serve sweep at %d satellites: %w", sizes[i], err)
		}
		points[i] = ServePoint{Satellites: sizes[i], Result: *res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.Telemetry.MergeShards(shards)
	return points, nil
}
