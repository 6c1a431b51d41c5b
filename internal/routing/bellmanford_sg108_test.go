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
		if err := sc.GraphInto(g, at, nil); err != nil {
			t.Fatal(err)
		}
		s.Run(g, sc.Params.RoutingEpsilon)
		routing.RequireFullSweepEqual(t, &s, g, sc.Params.RoutingEpsilon, fmt.Sprintf("step %d (t=%v)", step, at))
	}
}

// TestKernelsMatchDenseOnSpaceGround108 pins the shortest-path kernels that
// read the sparse neighbour rows — Dijkstra and the protocol's
// disjoint-route extraction over an Adjacency — to the dense-matrix
// reference kernels on all 100 DefaultServeConfig SpaceGround-108
// snapshots, from every ground node to every other one, rebuilding one
// pooled graph in place as RunServe does.
func TestKernelsMatchDenseOnSpaceGround108(t *testing.T) {
	sc, err := qntn.NewSpaceGround(108, qntn.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var ground []string
	for _, lan := range sc.LANs {
		ground = append(ground, sc.GroundIDs[lan.Name]...)
	}
	cfg := qntn.DefaultServeConfig()
	gap := cfg.Horizon / time.Duration(cfg.Steps)
	g := routing.NewGraph()
	for step := 0; step < cfg.Steps; step++ {
		at := time.Duration(step) * gap
		if err := sc.GraphInto(g, at, nil); err != nil {
			t.Fatal(err)
		}
		routing.RequireKernelsMatchDense(t, g, ground, fmt.Sprintf("step %d (t=%v)", step, at))
	}
}
