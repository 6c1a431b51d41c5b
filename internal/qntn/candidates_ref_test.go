package qntn

import (
	"fmt"
	"slices"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
)

// buildCandidatesReference is the retired candidate builder, kept verbatim
// as the reference for buildCandidates: every node, satellites under an ISL
// allowlist included, gathers its partners from the grid, so the list also
// holds the satellite pairs the allowlist forbids.
func (se *stepEval) buildCandidatesReference() {
	se.candBuilt = true
	n := len(se.nodes)
	g := &se.grid
	g.beginBuild(n)
	for i := 0; i < n; i++ {
		if c := se.staticCell[i]; c >= 0 {
			g.cell[i] = c
		} else {
			g.cell[i] = g.cellIndex(se.pos[i])
		}
	}
	g.finishBuild(0, n)
	se.cand = se.cand[:0]
	for i := 0; i < n; i++ {
		s := se.scratch[:0]
		for _, j := range se.fiberList[se.fiberStart[i]:se.fiberStart[i+1]] {
			//qntn:coldpath amortized growth: scratch capacity is stable
			s = append(s, j)
		}
		nf := len(s)
		s = g.neighborsAfter(int32(i), s)
		if se.kind[i] == netsim.Ground {
			// Drop ground↔ground grid hits: they landed after the fiber
			// prefix, which already holds the only linkable ones.
			w := nf
			for _, j := range s[nf:] {
				if se.kind[j] == netsim.Ground {
					continue
				}
				s[w] = j
				w++
			}
			s = s[:w]
		}
		insertionSortI32(s)
		for _, j := range s {
			//qntn:coldpath amortized growth: candidate capacity is stable
			se.cand = append(se.cand, netsim.PackPair(i, int(j)))
		}
		se.scratch = s
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
// each: the production snapshot (SnapshotIntoStats) and the reference list
// admitted pair by pair through a fresh step of the same network model, so
// a fault schedule applies to both. It calls fn with the step's results.
func CompareCandidateSteps(sc *Scenario, instants []time.Duration, fn func(CandidateStep)) error {
	nodes := sc.Net.Nodes()
	for _, at := range instants {
		st := CandidateStep{At: at, Graph: routing.NewGraph(), RefGraph: routing.NewGraph()}
		se := sc.beginStep(nodes, at)
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

		if err := sc.Net.SnapshotIntoStats(st.Graph, at, &st.Stats); err != nil {
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
