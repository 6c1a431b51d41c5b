package qntn

import (
	"reflect"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/quantum/protocol"
	"qntn/internal/routing"
)

// protoTestConfig is the enabled protocol mix the white-box tests use.
func protoTestConfig() protocol.Config {
	return protocol.Config{
		MemoryT2:    20 * time.Millisecond,
		SwapSuccess: 0.85,
		PurifyPaths: 3,
		Seed:        5,
	}
}

// TestProtocolZeroHopBypass is the zero-hop regression: a request routed
// over a single edge — same-LAN fiber, or two directly linked ground
// stations — performs no swaps, waits zero time in memory, and keeps
// exactly the seed model's fidelity. An implementation that charged the
// 2L/c heralding wait and a swap loop to a direct route would dephase a
// pair that never sits in memory; this pins the bypass.
func TestProtocolZeroHopBypass(t *testing.T) {
	g := routing.NewGraph()
	if err := g.AddEdge("lanA-host", "lanA-switch", 0.92); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Protocol = protoTestConfig()
	sc := &Scenario{Params: p}
	pe := sc.newProtoEval()
	if pe == nil {
		t.Fatal("protocol enabled but newProtoEval returned nil")
	}
	path := []string{"lanA-host", "lanA-switch"}
	req := netsim.Request{ID: 3, Src: path[0], Dst: path[1]}
	var adj routing.Adjacency
	adj.Load(g, disjointCost)
	po, err := pe.outcome(&adj, path, req, 90*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !po.served {
		t.Fatal("zero-hop route must always serve: no swaps to fail")
	}
	etas := []float64{0.92}
	if want := PathFidelity(etas, p.FidelityModel); po.fidelity != want {
		t.Fatalf("zero-hop fidelity %v != seed model fidelity %v — bypass dephased or swapped a direct pair", po.fidelity, want)
	}
	if po.primaryEta != 0.92 {
		t.Fatalf("zero-hop eta %v != edge eta", po.primaryEta)
	}
	if po.swapAttempts != 0 || po.swapFailures != 0 || po.purifyRounds != 0 || po.purifyAccepted != 0 {
		t.Fatalf("zero-hop route consumed draws: %+v", po)
	}
}

// protoTestAttempt is one routable request at a found topology instant.
type protoTestAttempt struct {
	req  netsim.Request
	path []string
}

// protoTestTopology scans the day for the first topology instant with
// multi-hop routable workload requests — satellite passes are intermittent,
// so a fixed instant can land in a gap — and returns it with its routes and
// the routable batch.
func protoTestTopology(t *testing.T, sc *Scenario) (time.Duration, *routing.Graph, []protoTestAttempt) {
	t.Helper()
	for at := time.Duration(0); at < 24*time.Hour; at += 5 * time.Minute {
		tables, g, err := sc.Routes(at)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := NewWorkload(sc, 7)
		if err != nil {
			t.Fatal(err)
		}
		var attempts []protoTestAttempt
		for _, req := range wl.Batch(50) {
			if !tables.Reachable(req.Src, req.Dst) {
				continue
			}
			path, err := tables.Path(req.Src, req.Dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) > 2 { // multi-hop: the full pipeline, not the bypass
				attempts = append(attempts, protoTestAttempt{req, path})
			}
		}
		if len(attempts) > 0 {
			return at, g, attempts
		}
	}
	t.Fatal("no instant of the day has a multi-hop routable request")
	return 0, nil, nil
}

// TestProtocolOutcomeDeterministic: repeated evaluation of the same request
// at the same instant is identical (same draws), while a different instant
// redraws independently — the property that lets a queued request retry.
func TestProtocolOutcomeDeterministic(t *testing.T) {
	p := DefaultParams()
	p.Protocol = protoTestConfig()
	sc, err := NewSpaceGround(24, p)
	if err != nil {
		t.Fatal(err)
	}
	at, g, attempts := protoTestTopology(t, sc)
	pe := sc.newProtoEval()
	fresh := sc.newProtoEval()
	var adj routing.Adjacency
	adj.Load(g, disjointCost)
	for _, a := range attempts {
		first, err := pe.outcome(&adj, a.path, a.req, at)
		if err != nil {
			t.Fatal(err)
		}
		second, err := pe.outcome(&adj, a.path, a.req, at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("request %d: reused evaluator diverged: %+v vs %+v", a.req.ID, first, second)
		}
		viaFresh, err := fresh.outcome(&adj, a.path, a.req, at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, viaFresh) {
			t.Fatalf("request %d: fresh evaluator diverged: %+v vs %+v", a.req.ID, first, viaFresh)
		}
	}
}

// TestProtocolOutcomeZeroAllocs: the per-step snapshot load and the
// per-request scoring both request drivers share must be allocation-free
// once the scorer's and the snapshot's buffers are warm, with the protocol
// layer on — disjoint extraction, swap chain, dephasing, distillation — and
// off, so the pooled GraphInto serving fast path survives
// either setting.
func TestProtocolOutcomeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates; AllocsPerRun is meaningless")
	}
	for _, on := range []bool{false, true} {
		p := DefaultParams()
		if on {
			p.Protocol = protoTestConfig()
		}
		sc, err := NewSpaceGround(24, p)
		if err != nil {
			t.Fatal(err)
		}
		at, g, attempts := protoTestTopology(t, sc)
		rs := sc.newRouteScorer()
		if on != (rs.pe != nil) {
			t.Fatalf("protocol=%v: scorer evaluator %v", on, rs.pe)
		}
		rs.load(g)
		for _, a := range attempts { // warm every buffer across path shapes
			if _, err := rs.score(g, a.path, a.req, at); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(20, func() {
			rs.load(g) // a new snapshot per batch, as each topology step loads one
			for _, a := range attempts {
				if _, err := rs.score(g, a.path, a.req, at); err != nil {
					t.Fatal(err)
				}
			}
		}); n != 0 {
			t.Fatalf("protocol=%v: warm scoring allocates %v times per batch", on, n)
		}
	}
}

// TestAdmissionRefreshReloadsProtocolSnapshot: admission advances one
// pooled graph in place at every topology update, so each update must load
// a new protocol snapshot; rows flattened at an earlier instant would route
// disjoint alternatives over edges that no longer exist. At each update,
// extraction over the admission's snapshot must equal extraction over a
// freshly loaded one for every edge as a direct-edge primary, which reaches
// every row that has an edge. Both topology backends are checked.
func TestAdmissionRefreshReloadsProtocolSnapshot(t *testing.T) {
	var (
		fresh     routing.Adjacency
		got, want routing.DisjointScratch
		multi     int
	)
	for _, eventDriven := range []bool{false, true} {
		p := DefaultParams()
		p.Protocol = protoTestConfig()
		p.EventDriven = eventDriven
		// A 6 h cadence puts the updates at 0, 6, 12 and 18 h.
		p.StepInterval = 6 * time.Hour
		sc, err := NewSpaceGround(24, p)
		if err != nil {
			t.Fatal(err)
		}
		ad, err := newAdmission(sc, admissionGrid(p, 18*time.Hour), queueUnserved)
		if err != nil {
			t.Fatal(err)
		}
		if steps := ad.ts.grid.steps; steps != 4 {
			t.Fatalf("event-driven=%v: %d topology updates, want 4", eventDriven, steps)
		}
		for k := 0; k < ad.ts.grid.steps; k++ {
			if err := ad.update(k); err != nil {
				t.Fatal(err)
			}
			graph := ad.ts.g
			fresh.Load(graph, disjointCost)
			for _, a := range graph.Nodes() {
				for _, b := range graph.Neighbors(a) {
					primary := []string{a, b}
					w, err := want.ExtractOn(&fresh, primary, 4)
					if err != nil {
						t.Fatal(err)
					}
					g, err := got.ExtractOn(&ad.scorer.adj, primary, 4)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("event-driven=%v t=%v primary %v: admission snapshot %v, fresh snapshot %v", eventDriven, ad.ts.grid.at(k), primary, g, w)
					}
					if len(w) > 1 {
						multi++
					}
				}
			}
		}
		ad.close()
	}
	if multi == 0 {
		t.Fatal("no edge had a disjoint alternative; the check cannot see stale rows")
	}
}
