package routing_test

import (
	"fmt"
	"testing"
	"time"

	"qntn/internal/qntn"
	"qntn/internal/routing"
)

// TestRunMatchesFullSweepOnSpaceGround108 pins the component-restricted
// solver to the full-sweep reference on the paper's serve workload: the
// SpaceGround-108 snapshots at every DefaultServeConfig sample instant,
// converged with one reused scratch as RunServe does. These snapshots are
// mostly disconnected (tens of components, many isolated satellites), the
// regime the restriction targets. The test sits in routing's external test
// package, not in internal/qntn, because the reference solver and the
// tables' via entries are visible only to routing's test binary.
func TestRunMatchesFullSweepOnSpaceGround108(t *testing.T) {
	sc, err := qntn.NewSpaceGround(108, qntn.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := qntn.DefaultServeConfig()
	gap := cfg.Horizon / time.Duration(cfg.Steps)
	g := routing.NewGraph()
	var s routing.BellmanFordScratch
	for step := 0; step < cfg.Steps; step++ {
		at := time.Duration(step) * gap
		if err := sc.GraphInto(g, at); err != nil {
			t.Fatal(err)
		}
		s.Run(g, sc.Params.RoutingEpsilon)
		routing.RequireFullSweepEqual(t, &s, g, sc.Params.RoutingEpsilon, fmt.Sprintf("step %d (t=%v)", step, at))
	}
}
