package qntn

import (
	"context"
	"fmt"
	"time"

	"qntn/internal/netsim"
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

// CoverageSweep computes the Fig. 6 curve — full-period coverage percentage
// as a function of constellation size — for every requested prefix of the
// Table II catalog, fanning the time axis out over a bounded worker pool
// (workers <= 0 selects GOMAXPROCS).
//
// Because the paper's constellations are nested prefixes of Table II, the
// sweep propagates the full catalog once (EphemerisCache), caches which
// satellites cover which LAN (and which satellite pairs hold a usable ISL)
// at every step, and answers each size with a union-find over the cached
// booleans. Steps are independent, so they are evaluated in fixed
// contiguous chunks by the worker pool and the per-chunk partial results
// are merged in time order — exactly equivalent to running
// Scenario.Coverage per size sequentially, which the test suite asserts.
func CoverageSweep(p Params, sizes []int, duration time.Duration, workers int) ([]CoveragePoint, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("qntn: empty size list")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("qntn: non-positive duration %v", duration)
	}
	maxN := 0
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
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
	nLAN := len(sc.LANs)

	// Dense node indices (into the network's node order) for the step
	// evaluator: representative hosts per LAN for the early-exit coverage
	// check, and every relay.
	nodes := sc.Net.Nodes()
	nodeIndex := make(map[string]int, len(nodes))
	for i, node := range nodes {
		nodeIndex[node.ID()] = i
	}
	lanHosts := make([][]int, nLAN)
	for li, lan := range sc.LANs {
		for _, id := range sc.GroundIDs[lan.Name] {
			lanHosts[li] = append(lanHosts[li], nodeIndex[id])
		}
	}
	satIdx := make([]int, len(sc.relays))
	for si, r := range sc.relays {
		satIdx[si] = nodeIndex[r.ID()]
	}
	nSats := len(satIdx)

	numChunks := (len(times) + coverageChunkSteps - 1) / coverageChunkSteps
	partials := make([][]CoverageResult, numChunks)
	err = runner.Map(context.Background(), numChunks, workers, func(_ context.Context, ci int) error {
		lo := ci * coverageChunkSteps
		hi := lo + coverageChunkSteps
		if hi > len(times) {
			hi = len(times)
		}
		res := make([]CoverageResult, len(sizes))
		coversLAN := make([]bool, maxN*nLAN)
		islNbr := make([][]int, maxN)
		uf := newUnionFind(nLAN + maxN)

		// Scenario-shared instrumentation: counters are atomic (order
		// invariant), and events carry the global step index, so the chunk
		// partition leaves telemetry output worker-count invariant.
		tel := sc.tel
		ins := sc.Net.Instruments()
		var label string
		if tel != nil {
			label = fmt.Sprintf("coverage-sweep/%s/%d", sc.Arch, len(sc.RelayIDs))
		}

		for k, at := range times[lo:hi] {
			// Phase 1: evaluate physics once for the largest constellation,
			// through the network's step evaluator (one per worker) so
			// positions, geodetic conversions and darkness are computed once
			// per instant — and fault decoration, when installed, applies
			// here exactly as in snapshots.
			pairs, admitted := 0, 0
			ev := sc.Net.BeginStep(at)
			for si, sat := range satIdx {
				islNbr[si] = islNbr[si][:0]
				for li := range lanHosts {
					covered := false
					for _, h := range lanHosts[li] {
						pairs++
						if _, ok := ev.EvaluatePair(h, sat); ok {
							covered = true
							admitted++
							break
						}
					}
					coversLAN[si*nLAN+li] = covered
				}
			}
			for i := 0; i < nSats; i++ {
				for j := i + 1; j < nSats; j++ {
					pairs++
					if _, ok := ev.EvaluatePair(satIdx[i], satIdx[j]); ok {
						islNbr[i] = append(islNbr[i], j)
						admitted++
					}
				}
			}
			if tel != nil {
				st := netsim.SnapshotStats{Pairs: pairs, Admitted: admitted}
				netsim.DrainStepStats(ev, &st)
				ins.Observe(&st)
				sc.recordStepEvent(label, lo+k, at, &st, nil)
			}
			ev.Close()

			// Phase 2: answer each size from the cache.
			for ri, n := range sizes {
				accumulate(&res[ri], at, step, bridgedPrefix(uf, coversLAN, islNbr, nLAN, n))
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

// bridgedPrefix checks whether the first n satellites bridge all LANs,
// reusing a preallocated union-find (elements 0..nLAN-1 are LANs,
// nLAN+i is satellite i).
func bridgedPrefix(uf *unionFind, coversLAN []bool, islNbr [][]int, nLAN, n int) bool {
	uf.reset(nLAN + n)
	for si := 0; si < n; si++ {
		for li := 0; li < nLAN; li++ {
			if coversLAN[si*nLAN+li] {
				uf.union(li, nLAN+si)
			}
		}
		for _, j := range islNbr[si] {
			if j < n {
				uf.union(nLAN+si, nLAN+j)
			}
		}
	}
	root := uf.find(0)
	for li := 1; li < nLAN; li++ {
		if uf.find(li) != root {
			return false
		}
	}
	return true
}

// reset reinitializes the first n elements of the union-find.
func (uf *unionFind) reset(n int) {
	for i := 0; i < n; i++ {
		uf.parent[i] = i
		uf.size[i] = 1
	}
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	maxN := 0
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
	}
	cache, err := NewEphemerisCache(maxN, p, cfg.sampleTimes(p))
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
