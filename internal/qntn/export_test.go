package qntn

import (
	"time"

	"qntn/internal/routing"
)

// EachEventGraph runs the event-driven engine over Coverage's grid for
// duration and calls fn with every step's instant and the engine's
// incrementally maintained graph, which is valid only during the call. It
// exposes the engine's snapshots to the external differential tests.
func EachEventGraph(sc *Scenario, duration time.Duration, fn func(at time.Duration, g *routing.Graph)) error {
	grid := coverageGrid(sc.Params.TopologyStep(), duration)
	eng, err := sc.newEventEngine(grid)
	if err != nil {
		return err
	}
	defer eng.Close()
	for k := 0; k < grid.steps; k++ {
		if err := eng.runStep(k); err != nil {
			return err
		}
		fn(grid.at(k), eng.g)
	}
	return nil
}

// Walker1kSpec and WalkerTestSpec expose the white-box tests' Walker
// constellations (the walker1k-coverage backbone and walker-96-global) to
// the external differential tests.
func Walker1kSpec() WalkerSpec   { return walker1kSpec() }
func WalkerTestSpec() WalkerSpec { return walkerTestSpec() }
