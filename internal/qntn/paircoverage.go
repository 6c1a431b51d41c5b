package qntn

import (
	"fmt"
	"time"
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
	// All is the paper's all-pairs coverage, equal to Scenario.Coverage
	// on either backend: a step counts when every host of every LAN shares
	// one component.
	All CoverageResult
	// Pairs holds one entry per unordered LAN pair, ordered
	// (TTU,EPB), (TTU,ORNL), (EPB,ORNL). A pair's step counts when every
	// host of both LANs shares one component, so All's covered steps are
	// exactly those where every pair is covered.
	Pairs []PairCoverage
	// LinkTransitions counts link up/down events across the run
	// (excluding the initial topology).
	LinkTransitions int
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
		accumulate(&detail.All, at, step, sc.bridgedInto(&ts.uf, ts.g, ts.g.NumNodes()))
		// A pair's answer is the same rule over its two LANs.
		pi := 0
		for i := range sc.lanHosts {
			for j := i + 1; j < len(sc.lanHosts); j++ {
				pair := [2][]int{sc.lanHosts[i], sc.lanHosts[j]}
				accumulate(&detail.Pairs[pi].Result, at, step, lansJoined(&ts.uf, pair[:]))
				pi++
			}
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
