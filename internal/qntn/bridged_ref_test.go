package qntn

import "time"

// bridgedReference is the retired bridged check of the event engine, kept
// as the reference for the demand-driven eventEngine.bridged: it reads the
// has[] bits that runStep's full re-evaluation of every open pair left
// behind, so it is valid only after runStep(k).
func (eng *eventEngine) bridgedReference() bool {
	if eng.ufDirty {
		eng.baseUF.ensure(eng.g.NumNodes())
		for _, fe := range eng.fiber {
			if fe.present {
				eng.baseUF.union(fe.i, fe.j)
			}
		}
		eng.ufDirty = false
	}
	eng.uf.copyFrom(eng.baseUF)
	for _, p := range eng.active {
		if eng.has[p] {
			pr := &eng.ws.pairs[p]
			eng.uf.union(pr.i, pr.j)
		}
	}
	root := -1
	for _, lan := range eng.sc.lanHosts {
		if len(lan) == 0 {
			return false
		}
		r := eng.uf.find(lan[0])
		for _, ii := range lan[1:] {
			if eng.uf.find(ii) != r {
				return false
			}
		}
		if root == -1 {
			root = r
		} else if r != root {
			return false
		}
	}
	return true
}

// BridgedCounts tallies one CompareBridgedSteps run.
type BridgedCounts struct {
	// Steps is the number of grid steps visited.
	Steps int
	// OpenPairSteps sums the open-window pairs over all steps: the pair
	// evaluations of the full re-evaluation.
	OpenPairSteps int
	// DemandEvals and FullEvals are the pair evaluations of the
	// demand-driven check and of the reference run.
	DemandEvals, FullEvals int
}

// CompareBridgedSteps runs two event engines over Coverage's grid for
// duration — the demand-driven check (advance, then bridged) and the
// retired full re-evaluation (runStep, then bridgedReference) — and calls
// fn with every step's instant and both answers.
func CompareBridgedSteps(sc *Scenario, duration time.Duration, fn func(at time.Duration, demand, full bool)) (BridgedCounts, error) {
	var c BridgedCounts
	grid := coverageGrid(sc.Params.TopologyStep(), duration)
	demand, err := sc.newEventEngine(grid)
	if err != nil {
		return c, err
	}
	defer demand.Close()
	full, err := sc.newEventEngine(grid)
	if err != nil {
		return c, err
	}
	defer full.Close()
	for k := 0; k < grid.steps; k++ {
		demand.advance(k)
		got := demand.bridged(k)
		if err := full.runStep(k); err != nil {
			return c, err
		}
		c.Steps++
		c.OpenPairSteps += len(full.active)
		fn(grid.at(k), got, full.bridgedReference())
	}
	c.DemandEvals, c.FullEvals = demand.pairEvals, full.pairEvals
	return c, nil
}
