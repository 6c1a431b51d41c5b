package main

import (
	"fmt"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/qntn"
	"qntn/internal/routing"
)

// The traced passes replay the engine's per-step loops from outside the
// program, one public call at a time, so that each call gets its own span.
// The replay must stay faithful to the engine: replay_test.go checks it
// edge for edge against netsim.Network.SnapshotInto and served count for
// served count against Scenario.RunServe.

// topoStats sums the per-step counts of replayed snapshots.
type topoStats struct {
	steps    int
	pairs    int64 // n(n−1)/2 per step
	visited  int64 // pairs offered to EvaluatePair
	admitted int64
	horizon  int64
	rangeRej int64
	edges    int64
}

// edge is one admitted pair, buffered between the physics and graph spans.
type edge struct {
	i, j int
	eta  float64
}

// replayGraph returns a graph holding net's nodes in insertion order, the
// state SnapshotInto keeps between steps.
func replayGraph(net *netsim.Network) *routing.Graph {
	g := routing.NewGraph()
	for _, nd := range net.Nodes() {
		g.AddNode(nd.ID())
	}
	return g
}

// replayTopology rebuilds g for instant t as SnapshotInto does, in the same
// order: ResetEdges → BeginStep → CandidatePairs → EvaluatePair →
// AddEdgeByIndex → DrainStepStats → Close. Admitted pairs are buffered in
// buf so that the physics and graph calls get separate spans; edges are
// still added in candidate order. rec may be nil.
func replayTopology(net *netsim.Network, g *routing.Graph, t time.Duration, rec *recorder, parent int32, id int64, buf *[]edge, st *topoStats) error {
	h := rec.begin("graph", parent, id)
	g.ResetEdges()
	rec.end(h)

	h = rec.begin("ephemeris", parent, id)
	ev := net.BeginStep(t)
	rec.end(h)
	defer ev.Close()

	h = rec.begin("candidates", parent, id)
	var cands []netsim.PackedPair
	indexed := false
	if pe, ok := ev.(netsim.PairEnumerator); ok {
		cands, indexed = pe.CandidatePairs()
	}
	rec.end(h)

	n := net.NumNodes()
	admitted := (*buf)[:0]
	h = rec.begin("physics", parent, id)
	if indexed {
		for _, c := range cands {
			i, j := c.Unpack()
			if eta, ok := ev.EvaluatePair(i, j); ok {
				admitted = append(admitted, edge{i, j, eta})
			}
		}
	} else {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if eta, ok := ev.EvaluatePair(i, j); ok {
					admitted = append(admitted, edge{i, j, eta})
				}
			}
		}
	}
	rec.end(h)
	*buf = admitted

	h = rec.begin("graph", parent, id)
	for _, e := range admitted {
		if err := g.AddEdgeByIndex(e.i, e.j, e.eta); err != nil {
			rec.end(h)
			return fmt.Errorf("replay at %v: %w", t, err)
		}
	}
	rec.end(h)

	var s netsim.SnapshotStats
	netsim.DrainStepStats(ev, &s)
	pairs := int64(n) * int64(n-1) / 2
	visited := pairs
	if indexed {
		visited = int64(len(cands))
	}
	st.steps++
	st.pairs += pairs
	st.visited += visited
	st.admitted += int64(len(admitted))
	st.horizon += s.HorizonRejects
	st.rangeRej += s.RangeRejects
	st.edges += int64(g.NumEdges())
	return nil
}

// serveStats sums the routing and protocol counts of a replayed serve run.
type serveStats struct {
	topo      topoStats
	bfRounds  int64
	requests  int
	served    int
	extracted int
}

// replayServe replays Scenario.RunServe with the protocol layer off: per
// sample instant the topology replay, one Bellman-Ford run, then
// Reachable/Path and the path-fidelity formula for every request of the
// batch. When disjoint > 1 it also extracts that many vertex-disjoint routes
// for every served request (routing.DisjointScratch.Extract, the protocol
// pipeline's route stage) under its own span. rec may be nil.
func replayServe(sc *qntn.Scenario, cfg qntn.ServeConfig, disjoint int, rec *recorder, root int32, st *serveStats) error {
	wl, err := qntn.NewWorkload(sc, cfg.Seed)
	if err != nil {
		return err
	}
	g := replayGraph(sc.Net)
	var (
		bf    routing.BellmanFordScratch
		dj    routing.DisjointScratch
		buf   []edge
		etas  []float64
		paths [][]string
	)
	gap := cfg.Horizon / time.Duration(cfg.Steps)
	for step := 0; step < cfg.Steps; step++ {
		at := time.Duration(step) * gap
		sh := rec.begin("step", root, int64(step))
		if err := replayTopology(sc.Net, g, at, rec, sh, int64(step), &buf, &st.topo); err != nil {
			return err
		}
		h := rec.begin("routing.bf", sh, int64(step))
		tables := bf.Run(g, sc.Params.RoutingEpsilon)
		rec.end(h)
		st.bfRounds += int64(bf.Rounds())

		reqs := wl.Batch(cfg.RequestsPerStep)
		paths = paths[:0]
		h = rec.begin("routing.path", sh, int64(step))
		for _, req := range reqs {
			if !tables.Reachable(req.Src, req.Dst) {
				continue
			}
			path, err := tables.Path(req.Src, req.Dst)
			if err != nil {
				rec.end(h)
				return fmt.Errorf("replay step %d request %d: %w", step, req.ID, err)
			}
			paths = append(paths, path)
		}
		rec.end(h)
		for _, path := range paths {
			if etas, err = g.EdgeEtasInto(etas[:0], path); err != nil {
				return fmt.Errorf("replay step %d: %w", step, err)
			}
			_ = qntn.PathFidelity(etas, sc.Params.FidelityModel)
		}
		st.requests += len(reqs)
		st.served += len(paths)

		if disjoint > 1 {
			h = rec.begin("protocol.disjoint", sh, int64(step))
			for _, path := range paths {
				routes, err := dj.Extract(g, path, disjoint)
				if err != nil {
					rec.end(h)
					return fmt.Errorf("replay step %d: %w", step, err)
				}
				st.extracted += len(routes)
			}
			rec.end(h)
		}
		rec.end(sh)
	}
	return nil
}
