package qntn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
	"qntn/internal/stats"
	"qntn/internal/telemetry"
)

// ArrivalConfig parameterizes the arrival-driven experiment: entanglement
// requests arrive as a Poisson process and queue until their LAN pair is
// bridged — the operational view of the paper's "all requests are served
// while in range" assumption.
type ArrivalConfig struct {
	// RatePerHour is the mean Poisson arrival rate of inter-LAN requests.
	RatePerHour float64
	// Horizon is the simulated period.
	Horizon time.Duration
	Seed    int64
}

// ArrivalResult summarizes the arrival-driven run.
type ArrivalResult struct {
	Config ArrivalConfig
	// Arrivals counts generated requests; Served counts those delivered
	// within the horizon; the rest are censored in queue.
	Arrivals int
	Served   int
	// ServedImmediately counts requests delivered by the arrival handler
	// itself — the pair was bridged the moment the request arrived. The
	// classification is by serve site, not by zero wait: a queued request
	// drained at the exact instant it arrived also has zero wait but did
	// pass through the queue.
	ServedImmediately int
	// RequestsEvaluated counts admission attempts: one per arrival plus
	// one per queued request per drain — the unit the serve daemon's
	// throughput gauge reports.
	RequestsEvaluated int
	// Wait statistics over served requests.
	MeanWait time.Duration
	MaxWait  time.Duration
	// MeanFidelity at the moment of service.
	MeanFidelity float64
	// MaxQueueDepth is the largest number of requests simultaneously
	// waiting.
	MaxQueueDepth int
	// EventsProcessed counts discrete events (arrivals + topology
	// updates).
	EventsProcessed int
}

// ServedPercent returns the delivered fraction.
func (r *ArrivalResult) ServedPercent() float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return 100 * float64(r.Served) / float64(r.Arrivals)
}

// queuedRequest is a waiting arrival.
type queuedRequest struct {
	req     netsim.Request
	arrived time.Duration
}

// unservedPolicy says what the admission core does with a request it cannot
// serve at its own instant: queue it for a later topology update
// (RunArrivals, RunTraffic), or drop it, since the serve experiment's
// time-slotted requests are served at their instant or not at all.
type unservedPolicy bool

const (
	queueUnserved unservedPolicy = false
	dropUnserved  unservedPolicy = true
)

// arrivalSource is an admission run's request stream in time order. The
// core reads at(i) as often as it needs, and req(i) exactly once per i, in
// order.
type arrivalSource interface {
	count() int
	at(i int) time.Duration
	req(i int) netsim.Request
}

// arrivalList is a materialized, time-sorted request stream.
type arrivalList []trafficArrival

func (l arrivalList) count() int               { return len(l) }
func (l arrivalList) at(i int) time.Duration   { return l[i].at }
func (l arrivalList) req(i int) netsim.Request { return l[i].req }

// slottedSource is the serve experiment's request stream: perStep requests
// at each grid instant, drawn from wl as the core admits them, so no batch
// is ever materialized.
type slottedSource struct {
	wl      *Workload
	grid    sampleGrid
	perStep int
}

func (s slottedSource) count() int             { return s.grid.steps * s.perStep }
func (s slottedSource) at(i int) time.Duration { return s.grid.at(i / s.perStep) }
func (s slottedSource) req(int) netsim.Request { return s.wl.Next() }

// stepWindow counts one step's event window, from its topology update to
// the next (or to the end of the run).
type stepWindow struct {
	arrivals, served, dropped int
	fidSum                    float64
}

// admission is the request-scheduling core behind every request driver: a
// topoStepper over the driver's sample grid (either backend), one
// shortest-path tree per queried source under 1/(η+ε) valid until the next
// update (routing.SourceTrees, which answers exactly as routing.Dijkstra
// from that source would), and the driver's unserved policy with, for
// queueUnserved, the FIFO wait queue and its drain. The graph storage, the
// pooled trees, the path buffer and the queue backing array are all reused
// across the run.
type admission struct {
	ts     *topoStepper
	trees  routing.SourceTrees
	cost   routing.CostFunc // 1/(η+ε) at Params.RoutingEpsilon
	path   []string         // the routed request's path, reused
	queue  []queuedRequest
	policy unservedPolicy
	// scorer decides each routed request; a queued request whose protocol
	// attempt fails redraws at the next drain instant (PairKey includes the
	// evaluation time).
	scorer routeScorer
	proto  protoOutcome // accumulated draw counters over the run
	// outcomes, when non-nil, receives one outcome per request as it
	// resolves: served, with its own copy of the path, or dropped.
	outcomes *netsim.Metrics
	label    string     // the run's event stream
	win      stepWindow // the open event window

	served    int
	dropped   int
	immediate int
	evaluated int // admission attempts: arrivals plus drain retries
	maxQueue  int
	maxWait   time.Duration
	waits     []float64 // seconds, in serve order
	fids      []float64 // fidelity at serve time, in serve order
}

// admissionGrid returns the instants the arrival-driven runs update the
// topology at: 0, step, … ≤ horizon, step = p.TopologyStep. The serve
// daemon propagates its shared ephemeris on the same grid, so every
// satellite position a query's admission reads is a cache hit.
func admissionGrid(p Params, horizon time.Duration) sampleGrid {
	step := p.TopologyStep()
	return sampleGrid{gap: step, steps: int(horizon/step) + 1}
}

// newAdmission returns an admission whose topology updates run on grid and
// which handles requests it cannot serve by policy. The caller must close
// it.
func newAdmission(sc *Scenario, grid sampleGrid, policy unservedPolicy) (*admission, error) {
	ts, err := sc.newTopoStepper(grid, false)
	if err != nil {
		return nil, err
	}
	return &admission{
		ts:     ts,
		cost:   routing.InverseEtaCost(sc.Params.RoutingEpsilon),
		policy: policy,
		scorer: sc.newRouteScorer(),
	}, nil
}

// close returns the stepper's event engine, if any, to the scenario's pool.
func (ad *admission) close() { ad.ts.close() }

// tryServe attempts to deliver q against the current topology. onArrival
// marks the serve site — true from the arrival handler, false from the
// drain loop — which is what the immediate classification reports.
func (ad *admission) tryServe(now time.Duration, q queuedRequest, onArrival bool) (bool, error) {
	ad.evaluated++
	path, ok, err := ad.trees.AppendPath(ad.path[:0], q.req.Src, q.req.Dst)
	ad.path = path
	if err != nil || !ok {
		return false, err
	}
	po, err := ad.scorer.score(ad.ts.g, path, q.req, now)
	if err != nil {
		return false, err
	}
	ad.proto.swapAttempts += po.swapAttempts
	ad.proto.swapFailures += po.swapFailures
	ad.proto.purifyRounds += po.purifyRounds
	ad.proto.purifyAccepted += po.purifyAccepted
	if !po.served {
		// Swap chain or distillation failed: the policy decides whether
		// the request redraws at the next topology instant.
		return false, nil
	}
	wait := now - q.arrived
	ad.served++
	ad.win.served++
	ad.win.fidSum += po.fidelity
	if onArrival {
		ad.immediate++
	}
	ad.waits = append(ad.waits, wait.Seconds())
	if wait > ad.maxWait {
		ad.maxWait = wait
	}
	ad.fids = append(ad.fids, po.fidelity)
	if ad.outcomes != nil {
		ad.outcomes.Record(netsim.Outcome{Request: q.req, At: now, Served: true,
			Path: slices.Clone(path), EndToEndEta: po.primaryEta, Fidelity: po.fidelity})
	}
	return true, nil
}

// arrive admits one new request: served on the spot, or else dropped or
// appended to the wait queue, as the policy says.
func (ad *admission) arrive(now time.Duration, req netsim.Request) error {
	ad.win.arrivals++
	q := queuedRequest{req: req, arrived: now}
	ok, err := ad.tryServe(now, q, true)
	if err != nil || ok {
		return err
	}
	if ad.policy == dropUnserved {
		ad.dropped++
		ad.win.dropped++
		if ad.outcomes != nil {
			ad.outcomes.Record(netsim.Outcome{Request: req, At: now})
		}
		return nil
	}
	ad.queue = append(ad.queue, q)
	if len(ad.queue) > ad.maxQueue {
		ad.maxQueue = len(ad.queue)
	}
	return nil
}

// update runs topology update k: it closes step k−1's event window,
// advances the topology, loads the routing trees' snapshot of it (dropping
// the previous update's trees) and, with the protocol layer on, the
// protocol's, then drains the queue, retrying every queued request and
// keeping the still-unserved ones in FIFO order.
func (ad *admission) update(k int) error {
	if k > 0 {
		ad.closeWindow(k - 1)
	}
	if err := ad.ts.step(k); err != nil {
		return err
	}
	ad.trees.Load(ad.ts.g, ad.cost)
	ad.scorer.load(ad.ts.g)
	remaining := ad.queue[:0]
	for _, q := range ad.queue {
		ok, err := ad.tryServe(ad.ts.grid.at(k), q, false)
		if err != nil {
			return err
		}
		if !ok {
			remaining = append(remaining, q)
		}
	}
	ad.queue = remaining
	return nil
}

// run merges the stepper's topology-update stream with src, labelling its
// events label. At a time tie the update runs first, the retired event
// heap's FIFO order, so a serve batch is routed on its instant's snapshot
// in draw order. After the last request the last event window closes and
// the request counters receive the run (see report).
func (ad *admission) run(src arrivalSource, label string) error {
	ad.label = label
	grid := ad.ts.grid
	n := src.count()
	for k, i := 0, 0; k < grid.steps || i < n; {
		if k < grid.steps && (i >= n || grid.at(k) <= src.at(i)) {
			if err := ad.update(k); err != nil {
				return err
			}
			k++
		} else {
			if err := ad.arrive(src.at(i), src.req(i)); err != nil {
				return err
			}
			i++
		}
	}
	ad.closeWindow(grid.steps - 1)
	ad.report()
	return nil
}

// closeWindow ends step k's event window, from update k to the next (or to
// the end of the run). An instrumented scenario's routing counters receive
// the trees the step's snapshot started and the nodes they settled, and its
// event sink one event: those, the snapshot stats, and the window's
// arrivals, served and dropped requests, mean served fidelity and final
// queue depth.
func (ad *admission) closeWindow(k int) {
	w := ad.win
	ad.win = stepWindow{}
	sc := ad.ts.sc
	tel := sc.tel
	if tel == nil {
		return
	}
	built, settled := ad.trees.Trees(), ad.trees.Settled()
	tel.treesBuilt.Add(uint64(built))
	tel.nodesSettled.Add(uint64(settled))
	sc.recordStepEvent(ad.label, k, ad.ts.grid.at(k), ad.ts.stats, func(e *telemetry.Event) {
		e.TreesBuilt = int64(built)
		e.NodesSettled = int64(settled)
		e.Arrivals = int64(w.arrivals)
		e.Served = int64(w.served)
		e.Dropped = int64(w.dropped)
		e.QueueDepth = int64(len(ad.queue))
		if w.served > 0 {
			e.MeanFidelity = w.fidSum / float64(w.served)
		}
	})
}

// report adds a finished run to an instrumented scenario's request
// counters, once: the requests served, those dropped or still queued at the
// end (both count as dropped), every served fidelity, and the protocol's
// draw counters.
func (ad *admission) report() {
	tel := ad.ts.sc.tel
	if tel == nil {
		return
	}
	tel.requestsServed.Add(uint64(ad.served))
	tel.requestsDropped.Add(uint64(ad.dropped + len(ad.queue)))
	for _, f := range ad.fids {
		tel.fidelity.Observe(f)
	}
	tel.addProto(&ad.proto)
}

// RunArrivals executes the arrival-driven experiment: Poisson arrivals
// interleave with the periodic topology updates; each arrival is served
// against the most recent topology or queued, and every topology update
// drains the queue of newly reachable requests. All randomness is seeded;
// runs are reproducible. An instrumented scenario records the run's
// counters and, on an event sink, one event per topology update (see
// admission.closeWindow).
//
// The loop is admission.run's deterministic two-stream merge over the
// topology backend Params.EventDriven selects. It replays the retired
// event-heap implementation exactly — same arrival draws, same update
// instants, same update-first tie order — so results are byte-identical to
// the reference (see the differential test in arrivals_ref_test.go).
func (sc *Scenario) RunArrivals(cfg ArrivalConfig) (*ArrivalResult, error) {
	if !(cfg.RatePerHour > 0) || math.IsInf(cfg.RatePerHour, 1) {
		return nil, fmt.Errorf("qntn: arrival rate must be positive and finite, got %g", cfg.RatePerHour)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 24 * time.Hour
	}
	res := &ArrivalResult{Config: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	wl, err := NewWorkload(sc, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	// Poisson arrival instants: exponential interarrivals, drawn in the
	// exact order the event-heap implementation drew them. Requests are
	// drawn in arrival order, the order that implementation admitted them.
	meanGapS := 3600 / cfg.RatePerHour
	var arrivals []trafficArrival
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() * meanGapS * float64(time.Second))
		if at >= cfg.Horizon {
			break
		}
		arrivals = append(arrivals, trafficArrival{at: at, req: wl.Next()})
	}

	ad, err := newAdmission(sc, admissionGrid(sc.Params, cfg.Horizon), queueUnserved)
	if err != nil {
		return nil, err
	}
	defer ad.close()
	if err := ad.run(arrivalList(arrivals), sc.runLabel("arrivals", cfg.Seed)); err != nil {
		return nil, err
	}

	res.Arrivals = len(arrivals)
	res.EventsProcessed = ad.ts.grid.steps + len(arrivals)
	res.Served = ad.served
	res.ServedImmediately = ad.immediate
	res.RequestsEvaluated = ad.evaluated
	res.MaxQueueDepth = ad.maxQueue
	res.MaxWait = ad.maxWait
	res.MeanWait = secs(stats.Mean(ad.waits))
	res.MeanFidelity = stats.Mean(ad.fids)
	return res, nil
}

// secs converts a duration in seconds to a time.Duration.
func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
