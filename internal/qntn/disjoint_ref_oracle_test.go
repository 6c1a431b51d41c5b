package qntn_test

import (
	"reflect"
	"testing"
	"time"

	"qntn/internal/qntn"
	"qntn/internal/qntn/oracletest"
	"qntn/internal/routing"
)

// TestDisjointExtractMatchesDenseReference108 pins the protocol's route
// stage on the paper's serve workload: at every DefaultServeConfig
// SpaceGround-108 instant, one Adjacency is loaded per snapshot of a pooled
// graph, as RunServe does, and ExtractOn must be reflect.DeepEqual to
// clone-and-delete extraction with the baseline Dijkstra over the dense
// matrix, for every served request (k = 3, the serve benchmark's budget,
// and k = 4). The routing package pins its retired dense-row kernel to that
// same reference on random graphs; these snapshots add the real shape
// (dozens of components, degree about 3) and the per-step reuse. A served
// route's interior is a cut of these snapshots, so its extraction finds no
// alternative and runs each Dijkstra to exhaustion; every distinct hop of
// the step's served routes is therefore also extracted as a direct-edge
// primary, which mostly does have alternatives and stops at the
// destination.
func TestDisjointExtractMatchesDenseReference108(t *testing.T) {
	sc, err := qntn.NewSpaceGround(108, qntn.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := qntn.DefaultServeConfig()
	wl, err := qntn.NewWorkload(sc, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	gap := cfg.Horizon / time.Duration(cfg.Steps)
	g := routing.NewGraph()
	var (
		bf      routing.BellmanFordScratch
		adj     routing.Adjacency
		ds      routing.DisjointScratch
		checked int
		multi   int
	)
	check := func(step int, primary []string, k int) {
		t.Helper()
		want, err := oracletest.DisjointPathsReference(g, primary, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.ExtractOn(&adj, primary, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d primary %v k=%d: ExtractOn %v, reference %v", step, primary, k, got, want)
		}
		checked++
		if len(got) > 1 {
			multi++
		}
	}
	for step := 0; step < cfg.Steps; step++ {
		if err := sc.GraphInto(g, time.Duration(step)*gap, nil); err != nil {
			t.Fatal(err)
		}
		adj.Load(g, routing.NegLogEtaCost(0))
		tables := bf.Run(g, sc.Params.RoutingEpsilon)
		hops := make(map[[2]string]bool)
		for _, req := range wl.Batch(cfg.RequestsPerStep) {
			if !tables.Reachable(req.Src, req.Dst) {
				continue
			}
			path, err := tables.Path(req.Src, req.Dst)
			if err != nil {
				t.Fatal(err)
			}
			check(step, path, 3)
			check(step, path, 4)
			for i := 0; i+1 < len(path); i++ {
				hops[[2]string{path[i], path[i+1]}] = true
			}
		}
		for hop := range hops {
			check(step, hop[:], 4)
		}
	}
	if checked < 10000 || multi < 1000 {
		t.Fatalf("only %d extractions (%d with an alternative route) checked; workload too sparse", checked, multi)
	}
}
