package qntn

import (
	"fmt"
	"slices"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
)

// buildCandidatesReference is the retired candidate builder's list,
// computed without the production grid: every node, satellites under an
// ISL allowlist included, pairs with every later node whose cell lies
// within one step of its own on every axis, except that two ground hosts
// pair only through fiber (the same non-empty network). The list therefore
// also holds the satellite pairs the allowlist forbids. Cells are assigned
// as in production (static cell, else cellIndex) but decoded here with
// their own arithmetic, and the pairs come from an O(n²) scan over j > i
// rather than from the grid's buckets and neighborhood gather, so a defect
// there cannot drop or add the same pairs on both sides.
func (se *stepEval) buildCandidatesReference() {
	se.candBuilt = true
	n := len(se.nodes)
	dim := se.grid.dim
	cells := make([][3]int32, n)
	for i := range cells {
		c := se.staticCell[i]
		if c < 0 {
			c = se.grid.cellIndex(se.pos[i])
		}
		cells[i] = [3]int32{c % dim, c / dim % dim, c / dim / dim}
	}
	within := func(a, b [3]int32) bool {
		for k := range a {
			if d := a[k] - b[k]; d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	se.cand = se.cand[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pair := within(cells[i], cells[j])
			if se.kind[i] == netsim.Ground && se.kind[j] == netsim.Ground {
				pair = se.nodes[i].Network() != "" && se.nodes[i].Network() == se.nodes[j].Network()
			}
			if pair {
				se.cand = append(se.cand, netsim.PackPair(i, j))
			}
		}
	}
	se.indexCulled = int64(n)*int64(n-1)/2 - int64(len(se.cand))
}

// CandidateStep is one instant of CompareCandidateSteps.
type CandidateStep struct {
	At time.Duration
	// Cand is the production candidate list, Ref the reference list and
	// Allowed the reference list without the satellite↔satellite pairs the
	// ISL allowlist forbids; Removed counts those pairs.
	Cand, Ref, Allowed []netsim.PackedPair
	Removed            int
	// Graph and Stats come from the production snapshot; RefGraph and
	// RefStats from the same evaluator admitting the reference list, with
	// RefStats.IndexCulled the culled count the reference builder reported.
	Graph, RefGraph *routing.Graph
	Stats, RefStats netsim.SnapshotStats
}

// CompareCandidateSteps builds, at every instant, the production candidate
// list and the reference list on one step evaluator, then the topology from
// each: the production snapshot (GraphInto) and the reference list
// admitted pair by pair through a fresh step of the same network model, so
// a fault schedule applies to both. It calls fn with the step's results.
func CompareCandidateSteps(sc *Scenario, instants []time.Duration, fn func(CandidateStep)) error {
	nodes := sc.Net.Nodes()
	for _, at := range instants {
		st := CandidateStep{At: at, Graph: routing.NewGraph(), RefGraph: routing.NewGraph()}
		se := sc.beginStep(at)
		if !se.grid.ok {
			se.Close()
			return fmt.Errorf("t=%v: spatial index inactive at %d nodes", at, len(nodes))
		}
		se.buildCandidatesReference()
		st.Ref = slices.Clone(se.cand)
		st.RefStats.IndexCulled = se.indexCulled
		se.candBuilt = false
		cand, _ := se.CandidatePairs()
		st.Cand = slices.Clone(cand)
		for _, c := range st.Ref {
			i, j := c.Unpack()
			if se.islNbr != nil && se.kind[i] == netsim.Satellite && se.kind[j] == netsim.Satellite && !se.islAllowed(i, j) {
				st.Removed++
				continue
			}
			st.Allowed = append(st.Allowed, c)
		}
		se.Close()

		if err := sc.GraphInto(st.Graph, at, &st.Stats); err != nil {
			return err
		}
		for _, n := range nodes {
			st.RefGraph.AddNode(n.ID())
		}
		st.RefGraph.ResetEdges()
		ev := sc.Net.BeginStep(at)
		for _, c := range st.Ref {
			i, j := c.Unpack()
			if eta, ok := ev.EvaluatePair(i, j); ok {
				if err := st.RefGraph.AddEdgeByIndex(i, j, eta); err != nil {
					ev.Close()
					return err
				}
				st.RefStats.Admitted++
			}
		}
		culled := st.RefStats.IndexCulled
		netsim.DrainStepStats(ev, &st.RefStats)
		ev.Close()
		st.RefStats.Pairs = len(nodes) * (len(nodes) - 1) / 2
		st.RefStats.IndexCulled = culled
		fn(st)
	}
	return nil
}
