package qntn

import (
	"fmt"
	"time"

	"qntn/internal/orbit"
	"qntn/internal/routing"
	"qntn/internal/telemetry"
)

// Interval is a half-open time span [Start, End) during which the regional
// network is fully bridged.
type Interval struct {
	Start time.Duration
	End   time.Duration
}

// Duration returns End - Start.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// CoverageResult reports the paper's Eq. (6)-(7) coverage metrics for one
// architecture over one simulated period.
type CoverageResult struct {
	// Intervals are the connected spans (Eq. 6's k-intervals).
	Intervals []Interval
	// Covered is T_c, the summed duration of the intervals.
	Covered time.Duration
	// Total is the simulated period (T_day in the paper).
	Total time.Duration
	// Steps and CoveredSteps count topology evaluations.
	Steps        int
	CoveredSteps int
}

// Percent returns P = T_c / T_total × 100 (Eq. 7).
func (r CoverageResult) Percent() float64 {
	if r.Total <= 0 {
		return 0
	}
	return 100 * float64(r.Covered) / float64(r.Total)
}

// Bridged reports whether the given topology snapshot bridges the region:
// every host of every LAN lies in one connected component. A host that is
// cut off from its own LAN (a ground station down under fault injection,
// say) therefore leaves the region uncovered, even when the rest of its LAN
// reaches the others. g may index the scenario's IDs in any order; a graph
// missing one of them is not bridged.
func (sc *Scenario) Bridged(g *routing.Graph) bool {
	lans := make([][]int, len(sc.LANs))
	for li, lan := range sc.LANs {
		ids := sc.GroundIDs[lan.Name]
		lans[li] = make([]int, len(ids))
		for k, id := range ids {
			i, ok := g.IndexOf(id)
			if !ok {
				return false
			}
			lans[li][k] = i
		}
	}
	var uf unionFind
	return joinedIn(&uf, g, g.NumNodes(), lans)
}

// bridgedInto is Bridged over a snapshot in the network's node order,
// restricted to its first limit nodes, with a caller-owned union-find: the
// stepped topology backend reuses one scratch across snapshots, and the
// coverage sweep answers each constellation prefix from one snapshot.
func (sc *Scenario) bridgedInto(uf *unionFind, g *routing.Graph, limit int) bool {
	return joinedIn(uf, g, limit, sc.lanHosts)
}

// joinedIn resets uf to limit singletons, unions every edge of g between
// two of its first limit nodes and applies lansJoined to lans.
func joinedIn(uf *unionFind, g *routing.Graph, limit int, lans [][]int) bool {
	uf.ensure(limit)
	g.EachEdge(func(i, j int, _ float64) {
		if j < limit { // EachEdge visits i < j
			uf.union(i, j)
		}
	})
	return lansJoined(uf, lans)
}

// lansJoined is the coverage rule of every backend and driver: the LANs
// are bridged when every host of every LAN shares one root in uf. lans
// holds each LAN's host indices; a LAN without hosts is never joined.
//
//qntn:hotpath after every union of the event engine's bridged check
func lansJoined(uf *unionFind, lans [][]int) bool {
	root := -1
	for _, hosts := range lans {
		if len(hosts) == 0 {
			return false
		}
		if root < 0 {
			root = uf.find(hosts[0])
		}
		for _, h := range hosts {
			if uf.find(h) != root {
				return false
			}
		}
	}
	return true
}

// Coverage simulates the scenario for the given duration, updating the
// topology every Params.TopologyStep (the paper's 30 s satellite movement
// step), and returns the Eq. (6)-(7) coverage metrics. Each covered step
// contributes one step interval to T_c.
func (sc *Scenario) Coverage(duration time.Duration) (*CoverageResult, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("qntn: non-positive coverage duration %v", duration)
	}
	step := sc.Params.TopologyStep()
	grid := coverageGrid(step, duration)
	ts, err := sc.newTopoStepper(grid, false)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	res := &CoverageResult{Total: duration}
	tel := sc.tel
	var label string
	if tel != nil {
		label = sc.coverageLabel()
	}
	for k := 0; k < grid.steps; k++ {
		covered, err := ts.bridgedStep(k)
		if err != nil {
			return nil, err
		}
		at := grid.at(k)
		accumulate(res, at, step, covered)
		if tel != nil {
			tel.coverageSteps.Inc()
			if covered {
				tel.coverageCovered.Inc()
			}
			sc.recordStepEvent(label, k, at, ts.stats, func(e *telemetry.Event) {
				e.Covered = covered
			})
		}
	}
	return res, nil
}

// FullDayCoverage runs Coverage over the paper's 24-hour horizon.
func (sc *Scenario) FullDayCoverage() (*CoverageResult, error) {
	return sc.Coverage(orbit.Day)
}

// unionFind is a plain disjoint-set with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

// ensure resizes the union-find to exactly n fresh singleton elements,
// reusing the backing arrays when possible.
func (uf *unionFind) ensure(n int) {
	//qntn:coldpath grows only when the node count does
	if cap(uf.parent) < n {
		uf.parent = make([]int, n)
		uf.size = make([]int, n)
	}
	uf.parent = uf.parent[:n]
	uf.size = uf.size[:n]
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
}

// copyFrom makes uf an exact copy of src (same parents and sizes), reusing
// uf's backing arrays. The event engine uses it to restore a precomputed
// "fiber-only" union-find template each step instead of re-unioning the
// static fiber edges.
func (uf *unionFind) copyFrom(src *unionFind) {
	n := len(src.parent)
	//qntn:coldpath grows only when the node count does
	if cap(uf.parent) < n {
		uf.parent = make([]int, n)
		uf.size = make([]int, n)
	}
	uf.parent = uf.parent[:n]
	uf.size = uf.size[:n]
	copy(uf.parent, src.parent)
	copy(uf.size, src.size)
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
