package main

import (
	"reflect"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/routing"
)

// edgeList lists g's edges in EachEdge order.
func edgeList(g *routing.Graph) [][3]float64 {
	var out [][3]float64
	g.EachEdge(func(i, j int, eta float64) { out = append(out, [3]float64{float64(i), float64(j), eta}) })
	return out
}

// checkReplicaGraphs compares the traced topology replay with SnapshotInto
// edge for edge at the sampled instants.
func checkReplicaGraphs(t *testing.T, sc *qntn.Scenario, instants []time.Duration) {
	t.Helper()
	want := routing.NewGraph()
	got := replayGraph(sc.Net)
	rec := newRecorder()
	var buf []edge
	var st topoStats
	for _, at := range instants {
		if err := sc.Net.SnapshotInto(want, at); err != nil {
			t.Fatal(err)
		}
		var ws netsim.SnapshotStats
		if err := sc.Net.SnapshotIntoStats(want, at, &ws); err != nil {
			t.Fatal(err)
		}
		before := st
		if err := replayTopology(sc.Net, got, at, rec, noParent, 0, &buf, &st); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(edgeList(got), edgeList(want)) {
			t.Fatalf("t=%v: replay has %d edges, SnapshotInto %d, or they differ", at, got.NumEdges(), want.NumEdges())
		}
		if d := st.admitted - before.admitted; d != int64(ws.Admitted) {
			t.Fatalf("t=%v: replay admitted %d, snapshot %d", at, d, ws.Admitted)
		}
		if d := st.visited - before.visited; d != int64(ws.Pairs)-ws.IndexCulled {
			t.Fatalf("t=%v: replay visited %d pairs, snapshot %d−%d", at, d, ws.Pairs, ws.IndexCulled)
		}
	}
	if len(rec.passes()) == 0 {
		t.Fatal("replay recorded no spans")
	}
}

func sampled(step time.Duration, n int) []time.Duration {
	var out []time.Duration
	for k := range n {
		out = append(out, time.Duration(k*37+3)*step)
	}
	return out
}

func TestReplayMatchesSnapshotSpaceGround108(t *testing.T) {
	sc, err := qntn.NewSpaceGround(108, qntn.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	checkReplicaGraphs(t, sc, sampled(30*time.Second, 12))
}

func TestReplayMatchesSnapshotWalker(t *testing.T) {
	sc, err := qntn.NewWalker(walkerSpec(5), qntn.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	checkReplicaGraphs(t, sc, sampled(30*time.Second, 4))
}

func TestReplayMatchesSnapshotSmallWalkerDense(t *testing.T) {
	// Below the spatial index's size threshold the replay takes the dense
	// pair loop.
	spec := qntn.WalkerSpec{Shells: []orbit.WalkerShell{{TotalSats: 24, Planes: 4, Phasing: 1, InclinationDeg: 53, AltitudeM: 550e3}}}
	sc, err := qntn.NewWalker(spec, qntn.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	checkReplicaGraphs(t, sc, sampled(30*time.Second, 6))
}

func TestReplayServeMatchesRunServe(t *testing.T) {
	sc, err := qntn.NewSpaceGround(108, qntn.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := qntn.DefaultServeConfig()
	cfg.RequestsPerStep, cfg.Steps, cfg.Seed = 40, 30, 7
	res, err := sc.RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st serveStats
	if err := replayServe(sc, cfg, 3, newRecorder(), noParent, &st); err != nil {
		t.Fatal(err)
	}
	if want := servePin(res).Served; st.served != want {
		t.Fatalf("replay served %d, RunServe %d", st.served, want)
	}
	if st.requests != cfg.RequestsPerStep*cfg.Steps || st.extracted < st.served {
		t.Fatalf("replay evaluated %d requests and extracted %d routes for %d served", st.requests, st.extracted, st.served)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	rec := &recorder{spans: []span{
		{Name: "pass", Start: 0, End: 100, Parent: noParent},
		{Name: "step", Start: 10, End: 90, Parent: 0},
		{Name: "physics", Start: 20, End: 50, Parent: 1},
		{Name: "graph", Start: 40, End: 70, Parent: 1}, // overlaps physics
	}}
	p := rec.passes()
	if len(p) != 1 {
		t.Fatalf("got %d passes", len(p))
	}
	want := map[string]float64{"pass": 20e-9, "step": 30e-9, "physics": 30e-9, "graph": 30e-9}
	for k, v := range want {
		if d := p[0].self[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", k, p[0].self[k], v)
		}
	}
	if u := p[0].unattributed(); u < 0.5-1e-12 || u > 0.5+1e-12 {
		t.Errorf("unattributed = %g, want 0.5", u)
	}
}
