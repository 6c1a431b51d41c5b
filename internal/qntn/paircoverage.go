package qntn

import (
	"fmt"
	"time"

	"qntn/internal/routing"
)

// PairCoverage reports the coverage of one LAN pair — the S_ij view of the
// paper's coverage definition, which requires a link between every pair of
// local networks.
type PairCoverage struct {
	NetworkA string
	NetworkB string
	Result   CoverageResult
}

// CoverageDetail is the per-pair breakdown of a coverage run plus topology
// churn statistics.
type CoverageDetail struct {
	// All is the paper's all-pairs coverage (identical to
	// Scenario.Coverage).
	All CoverageResult
	// Pairs holds one entry per unordered LAN pair, ordered
	// (TTU,EPB), (TTU,ORNL), (EPB,ORNL).
	Pairs []PairCoverage
	// LinkTransitions counts link up/down events across the run
	// (excluding the initial topology).
	LinkTransitions int
}

// bridgedPairs computes, for one snapshot, which LAN pairs are connected.
// Returns the pair map and whether all LANs share one component.
func (sc *Scenario) bridgedPairs(g *routing.Graph) (map[[2]string]bool, bool) {
	uf := newUnionFind(g.NumNodes())
	g.EachEdge(func(i, j int, _ float64) { uf.union(i, j) })
	roots := make(map[string]int, len(sc.LANs))
	for _, lan := range sc.LANs {
		ids := sc.GroundIDs[lan.Name]
		if len(ids) == 0 {
			return nil, false
		}
		i0, ok := g.IndexOf(ids[0])
		if !ok {
			return nil, false
		}
		roots[lan.Name] = uf.find(i0)
	}
	pairs := make(map[[2]string]bool)
	all := true
	for i := 0; i < len(sc.LANs); i++ {
		for j := i + 1; j < len(sc.LANs); j++ {
			a, b := sc.LANs[i].Name, sc.LANs[j].Name
			ok := roots[a] == roots[b]
			pairs[[2]string{a, b}] = ok
			if !ok {
				all = false
			}
		}
	}
	return pairs, all
}

// DetailedCoverage runs the coverage analysis with per-pair breakdown and
// link-churn accounting over the given duration, on Coverage's grid.
func (sc *Scenario) DetailedCoverage(duration time.Duration) (*CoverageDetail, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("qntn: non-positive coverage duration %v", duration)
	}
	step := sc.Params.TopologyStep()
	grid := coverageGrid(step, duration)
	ts, err := sc.newTopoStepper(grid, true)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	detail := &CoverageDetail{All: CoverageResult{Total: duration}}
	for i := 0; i < len(sc.LANs); i++ {
		for j := i + 1; j < len(sc.LANs); j++ {
			detail.Pairs = append(detail.Pairs, PairCoverage{
				NetworkA: sc.LANs[i].Name,
				NetworkB: sc.LANs[j].Name,
				Result:   CoverageResult{Total: duration},
			})
		}
	}
	for k := 0; k < grid.steps; k++ {
		if err := ts.step(k); err != nil {
			return nil, err
		}
		at := grid.at(k)
		pairs, all := sc.bridgedPairs(ts.g)
		accumulate(&detail.All, at, step, all)
		for pi := range detail.Pairs {
			pc := &detail.Pairs[pi]
			accumulate(&pc.Result, at, step, pairs[[2]string{pc.NetworkA, pc.NetworkB}])
		}
	}
	detail.LinkTransitions = ts.linkTransitions()
	return detail, nil
}

// accumulate folds one step into a CoverageResult.
func accumulate(res *CoverageResult, at, step time.Duration, covered bool) {
	res.Steps++
	if !covered {
		return
	}
	res.CoveredSteps++
	res.Covered += step
	end := at + step
	if n := len(res.Intervals); n > 0 && res.Intervals[n-1].End == at {
		res.Intervals[n-1].End = end
	} else {
		res.Intervals = append(res.Intervals, Interval{Start: at, End: end})
	}
}
