package qntn

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
	"qntn/internal/stats"
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

// admission is the batched request-scheduling core shared by RunArrivals
// and RunTraffic: a topoStepper over the topology-update grid (either
// backend, like every other driver), one shortest-path tree per queried
// source under 1/(η+ε) valid until the next update (routing.SourceTrees,
// which answers exactly as routing.Dijkstra from that source would), and
// the FIFO wait queue with its drain loop. Batching admission per topology
// update keeps the per-step cost amortized: the graph storage, the pooled
// trees, the path buffer and the queue backing array are all reused across
// the run.
type admission struct {
	ts    *topoStepper
	trees routing.SourceTrees
	cost  routing.CostFunc // 1/(η+ε) at Params.RoutingEpsilon
	path  []string         // the routed request's path, reused
	queue []queuedRequest
	// scorer decides each routed request; a request whose protocol attempt
	// fails stays queued and redraws at the next drain instant (PairKey
	// includes the evaluation time).
	scorer routeScorer
	proto  protoOutcome // accumulated draw counters over the run

	served    int
	immediate int
	evaluated int // admission attempts: arrivals plus drain retries
	maxQueue  int
	maxWait   time.Duration
	waits     []float64 // seconds, in serve order
	fids      []float64 // fidelity at serve time, in serve order
	fidSum    float64
}

// admissionGrid returns the instants the admission loop updates the
// topology at: 0, step, … ≤ horizon, step = p.TopologyStep. The serve
// daemon propagates its shared ephemeris on the same grid, so every
// satellite position a query's admission reads is a cache hit.
func admissionGrid(p Params, horizon time.Duration) sampleGrid {
	step := p.TopologyStep()
	return sampleGrid{gap: step, steps: int(horizon/step) + 1}
}

// newAdmission returns an admission whose topology updates run on
// admissionGrid. The caller must close it.
func newAdmission(sc *Scenario, horizon time.Duration) (*admission, error) {
	ts, err := sc.newTopoStepper(admissionGrid(sc.Params, horizon), false)
	if err != nil {
		return nil, err
	}
	return &admission{
		ts:     ts,
		cost:   routing.InverseEtaCost(sc.Params.RoutingEpsilon),
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
		// Swap chain or distillation failed: the request stays queued and
		// redraws at the next topology instant.
		return false, nil
	}
	wait := now - q.arrived
	ad.served++
	if onArrival {
		ad.immediate++
	}
	ad.waits = append(ad.waits, wait.Seconds())
	if wait > ad.maxWait {
		ad.maxWait = wait
	}
	ad.fids = append(ad.fids, po.fidelity)
	ad.fidSum += po.fidelity
	return true, nil
}

// arrive admits one new request: served on the spot or appended to the
// wait queue.
func (ad *admission) arrive(now time.Duration, req netsim.Request) error {
	q := queuedRequest{req: req, arrived: now}
	ok, err := ad.tryServe(now, q, true)
	if err != nil {
		return err
	}
	if !ok {
		ad.queue = append(ad.queue, q)
		if len(ad.queue) > ad.maxQueue {
			ad.maxQueue = len(ad.queue)
		}
	}
	return nil
}

// drain retries every queued request against the updated topology,
// keeping the still-unroutable ones in FIFO order, and returns the number
// served.
func (ad *admission) drain(now time.Duration) (int, error) {
	before := ad.served
	remaining := ad.queue[:0]
	for _, q := range ad.queue {
		ok, err := ad.tryServe(now, q, false)
		if err != nil {
			return 0, err
		}
		if !ok {
			remaining = append(remaining, q)
		}
	}
	ad.queue = remaining
	return ad.served - before, nil
}

// run merges the stepper's topology-update stream with the time-sorted
// arrivals and returns the number of updates run. At a time tie the update
// runs first, the retired event heap's FIFO order when every update was
// enqueued before any arrival. Each update advances the topology, loads the
// routing trees' snapshot of it (dropping the previous update's trees) and,
// with the protocol layer on, the protocol's, drains the queue, then calls
// onUpdate, when non-nil, with the update's index, its instant and the
// number of arrivals admitted before it. Once the last arrival is admitted,
// an instrumented scenario's request counters receive what the run served
// (see report).
func (ad *admission) run(arrivals []trafficArrival, onUpdate func(k int, at time.Duration, arrived int)) (int, error) {
	grid := ad.ts.grid
	i := 0
	for k := 0; k < grid.steps || i < len(arrivals); {
		if k < grid.steps && (i >= len(arrivals) || grid.at(k) <= arrivals[i].at) {
			at := grid.at(k)
			if err := ad.ts.step(k); err != nil {
				return 0, err
			}
			ad.trees.Load(ad.ts.g, ad.cost)
			ad.scorer.load(ad.ts.g)
			if _, err := ad.drain(at); err != nil {
				return 0, err
			}
			if onUpdate != nil {
				onUpdate(k, at, i)
			}
			k++
		} else {
			if err := ad.arrive(arrivals[i].at, arrivals[i].req); err != nil {
				return 0, err
			}
			i++
		}
	}
	ad.report(ad.ts.sc.tel)
	return grid.steps, nil
}

// report adds a finished run to tel's request counters, once: the requests
// served and those still queued at the end (dropped), every served
// fidelity, and the protocol's draw counters. Nil-safe. Counting at the
// end rather than per update includes the arrivals served after the last
// topology update.
func (ad *admission) report(tel *scenarioTelemetry) {
	if tel == nil {
		return
	}
	tel.requestsServed.Add(uint64(ad.served))
	tel.requestsDropped.Add(uint64(len(ad.queue)))
	for _, f := range ad.fids {
		tel.fidelity.Observe(f)
	}
	tel.addProto(&ad.proto)
}

// RunArrivals executes the arrival-driven experiment: Poisson arrivals
// interleave with the periodic topology updates; each arrival is served
// against the most recent topology or queued, and every topology update
// drains the queue of newly reachable requests. All randomness is seeded;
// runs are reproducible.
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

	ad, err := newAdmission(sc, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	defer ad.close()
	updates, err := ad.run(arrivals, nil)
	if err != nil {
		return nil, err
	}

	res.Arrivals = len(arrivals)
	res.EventsProcessed = updates + len(arrivals)
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
