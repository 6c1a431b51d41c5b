package qntn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
	"qntn/internal/stats"
)

// runArrivalsReference is the retired event-heap implementation of
// RunArrivals, kept verbatim as the differential oracle for the pooled
// fast-path rewrite: fresh sc.Graph per topology update, the event
// ordering of simulator (simulator_test.go), per-update Dijkstra memo. The only additions are the
// RequestsEvaluated counter and serve-site immediate classification, both
// of which are provably identical to the old accounting under the heap's
// update-before-arrival tie order.
func runArrivalsReference(sc *Scenario, cfg ArrivalConfig) (*ArrivalResult, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 24 * time.Hour
	}
	res := &ArrivalResult{Config: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	wl, err := NewWorkload(sc, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	sim := newSimulator()
	var simErr error

	var graph *routing.Graph
	var dijkstraMemo map[string]*routing.SingleSourceResult
	var queue []queuedRequest
	var waits, fids []float64

	refreshTopology := func(s *simulator) bool {
		g, err := sc.Graph(s.Now())
		if err != nil {
			simErr = err
			s.Stop()
			return false
		}
		graph = g
		dijkstraMemo = make(map[string]*routing.SingleSourceResult)
		return true
	}

	tryServe := func(now time.Duration, q queuedRequest, onArrival bool) (bool, error) {
		res.RequestsEvaluated++
		src := q.req.Src
		sp, ok := dijkstraMemo[src]
		if !ok {
			var err error
			sp, err = routing.Dijkstra(graph, src, routing.InverseEtaCost(sc.Params.RoutingEpsilon))
			if err != nil {
				return false, err
			}
			dijkstraMemo[src] = sp
		}
		if math.IsInf(sp.Dist[q.req.Dst], 1) {
			return false, nil
		}
		path, err := sp.PathTo(q.req.Dst)
		if err != nil {
			return false, err
		}
		etas, err := graph.EdgeEtas(path)
		if err != nil {
			return false, err
		}
		wait := now - q.arrived
		res.Served++
		if onArrival {
			res.ServedImmediately++
		}
		waits = append(waits, wait.Seconds())
		if wait > res.MaxWait {
			res.MaxWait = wait
		}
		fids = append(fids, PathFidelity(etas, sc.Params.FidelityModel))
		return true, nil
	}

	step := sc.Params.TopologyStep()
	if err := sim.ScheduleEvery(0, step, cfg.Horizon, "topology-update", func(s *simulator) {
		if !refreshTopology(s) {
			return
		}
		remaining := queue[:0]
		for _, q := range queue {
			ok, err := tryServe(s.Now(), q, false)
			if err != nil {
				simErr = err
				s.Stop()
				return
			}
			if !ok {
				remaining = append(remaining, q)
			}
		}
		queue = remaining
	}); err != nil {
		return nil, err
	}

	meanGapS := 3600 / cfg.RatePerHour
	for at := time.Duration(0); ; {
		gap := time.Duration(rng.ExpFloat64() * meanGapS * float64(time.Second))
		at += gap
		if at >= cfg.Horizon {
			break
		}
		if err := sim.Schedule(at, "arrival", func(s *simulator) {
			res.Arrivals++
			q := queuedRequest{req: wl.Next(), arrived: s.Now()}
			ok, err := tryServe(s.Now(), q, true)
			if err != nil {
				simErr = err
				s.Stop()
				return
			}
			if !ok {
				queue = append(queue, q)
				if len(queue) > res.MaxQueueDepth {
					res.MaxQueueDepth = len(queue)
				}
			}
		}); err != nil {
			return nil, err
		}
	}

	if err := sim.Run(cfg.Horizon); err != nil {
		return nil, err
	}
	if simErr != nil {
		return nil, simErr
	}
	res.MeanWait = secs(stats.Mean(waits))
	res.MeanFidelity = stats.Mean(fids)
	res.EventsProcessed = sim.Processed
	return res, nil
}

// TestRunArrivalsMatchesReference is the migration gate: the merged-loop
// fast path must reproduce the event-heap reference bit for bit — every
// counter, every wait and fidelity aggregate — across architectures,
// seeds, and a faulted scenario.
func TestRunArrivalsMatchesReference(t *testing.T) {
	faulted := DefaultParams()
	faulted.Fault.Seed = 11
	faulted.Fault.SatMTBF = 6 * time.Hour
	faulted.Fault.SatMTTR = 20 * time.Minute

	cases := []struct {
		name  string
		build func() (*Scenario, error)
		cfg   ArrivalConfig
	}{
		{
			name:  "air-ground",
			build: func() (*Scenario, error) { return NewAirGround(DefaultParams()) },
			cfg:   ArrivalConfig{RatePerHour: 240, Horizon: 90 * time.Minute, Seed: 3},
		},
		{
			name:  "space-ground-36",
			build: func() (*Scenario, error) { return NewSpaceGround(36, DefaultParams()) },
			cfg:   ArrivalConfig{RatePerHour: 90, Horizon: 2 * time.Hour, Seed: 7},
		},
		{
			name:  "space-ground-faulted",
			build: func() (*Scenario, error) { return NewSpaceGround(54, faulted) },
			cfg:   ArrivalConfig{RatePerHour: 120, Horizon: time.Hour, Seed: 21},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.RunArrivals(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runArrivalsReference(sc, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path diverged from reference:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestRunArrivalsZeroStepInterval pins the cadence fallback: a zero
// StepInterval on hand-mutated params used to feed ScheduleEvery a
// degenerate interval and error out; it must now fall back to the 30 s
// default through Params.TopologyStep like every other run path.
func TestRunArrivalsZeroStepInterval(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sc.Params.StepInterval = 0
	cfg := ArrivalConfig{RatePerHour: 120, Horizon: 30 * time.Minute, Seed: 4}
	res, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatalf("zero step interval should fall back, got error: %v", err)
	}
	// 30 s cadence over 30 min: 61 updates (0..horizon inclusive) plus the
	// arrivals.
	if got := res.EventsProcessed - res.Arrivals; got != 61 {
		t.Fatalf("expected 61 topology updates under the fallback cadence, got %d", got)
	}

	// The fallback must match an explicit 30 s interval bit for bit.
	sc.Params.StepInterval = 30 * time.Second
	want, err := sc.RunArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("fallback cadence diverged from explicit 30 s interval:\n got %+v\nwant %+v", res, want)
	}
}

// TestArrivalImmediateClassificationBoundary pins the serve-site
// classification on the case the old wait==0 predicate got wrong: a queued
// request drained at the exact instant it arrived has zero wait but was
// not served on arrival.
func TestArrivalImmediateClassificationBoundary(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	src := sc.GroundIDs[sc.LANs[0].Name][0]
	dst := sc.GroundIDs[sc.LANs[1].Name][0]

	// Updates at 0 and 30 s. After the update at 0 the request enters the
	// queue stamped 30 s, so the update at 30 s drains it at its arrival
	// instant: zero wait, but served by the drain loop.
	at := 30 * time.Second
	ad, err := newAdmission(sc, admissionGrid(sc.Params, at), queueUnserved)
	if err != nil {
		t.Fatal(err)
	}
	defer ad.close()
	if steps := ad.ts.grid.steps; steps != 2 {
		t.Fatalf("grid has %d topology updates, want 2", steps)
	}
	if err := ad.update(0); err != nil {
		t.Fatal(err)
	}
	if ad.served != 0 {
		t.Fatalf("empty queue served %d requests", ad.served)
	}
	ad.queue = append(ad.queue, queuedRequest{req: netsim.Request{ID: 1, Src: src, Dst: dst}, arrived: at})
	if err := ad.update(1); err != nil {
		t.Fatal(err)
	}
	if len(ad.queue) != 0 || ad.served != 1 {
		t.Fatalf("drain should serve the queued request, served %d", ad.served)
	}
	if ad.maxWait != 0 || ad.waits[0] != 0 {
		t.Fatalf("boundary request should record zero wait, got %v", ad.maxWait)
	}
	if ad.immediate != 0 {
		t.Fatal("queued request drained at its arrival instant counted as immediate")
	}

	// The same pair served by the arrival handler is immediate.
	if err := ad.arrive(at, netsim.Request{ID: 2, Src: src, Dst: dst}); err != nil {
		t.Fatal(err)
	}
	if ad.served != 2 || ad.immediate != 1 {
		t.Fatalf("arrival-handler serve should be immediate: served %d immediate %d", ad.served, ad.immediate)
	}
}

// TestAdmissionUnknownEndpointsError: a request naming a node the topology
// does not hold fails the run with the routing error — as the per-source
// Dijkstra memo's "unknown source" did before the trees replaced it — for
// an unknown destination as well, instead of waiting in the queue forever.
func TestAdmissionUnknownEndpointsError(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	host := sc.GroundIDs[sc.LANs[0].Name][0]
	for _, c := range []struct {
		req  netsim.Request
		want string
	}{
		{netsim.Request{ID: 1, Src: "ghost", Dst: host}, `routing: unknown source "ghost"`},
		{netsim.Request{ID: 2, Src: host, Dst: "ghost"}, `routing: unknown destination "ghost"`},
	} {
		ad, err := newAdmission(sc, admissionGrid(sc.Params, 0), queueUnserved)
		if err != nil {
			t.Fatal(err)
		}
		err = ad.run(arrivalList{{at: 0, req: c.req}}, "arrivals")
		ad.close()
		if err == nil || err.Error() != c.want {
			t.Fatalf("request %+v: run error %v, want %q", c.req, err, c.want)
		}
		if len(ad.queue) != 0 {
			t.Fatalf("request %+v was queued", c.req)
		}
	}
}
