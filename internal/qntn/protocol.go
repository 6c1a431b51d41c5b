package qntn

import (
	"strconv"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/quantum/protocol"
	"qntn/internal/routing"
	"qntn/internal/runner"
)

// protoOutcome is the protocol layer's verdict on one request attempt.
type protoOutcome struct {
	// served reports whether at least one pair survived swapping and
	// distillation; fidelity is its root-convention fidelity when it did.
	served   bool
	fidelity float64
	// primaryEta is the end-to-end transmissivity of the primary route —
	// what the protocol-off path reports as EndToEndEta.
	primaryEta float64
	// Draw counters, for telemetry.
	swapAttempts   int
	swapFailures   int
	purifyRounds   int
	purifyAccepted int
}

// disjointCost is the edge cost a protocol snapshot (the Adjacency passed to
// protoEval.outcome) is loaded under: −log η, so disjoint extraction ranks
// alternatives by end-to-end transmissivity.
var disjointCost = routing.NegLogEtaCost(0)

// protoEval evaluates the entanglement-protocol layer for one run. All
// buffers are reused across requests, so the per-request evaluation is
// allocation-free after warm-up (asserted in protocol_alloc_test.go); one
// protoEval must therefore never be shared across goroutines — each sweep
// task builds its own, exactly like the routing trees.
type protoEval struct {
	sc     *Scenario
	cfg    protocol.Config
	k      int
	ds     routing.DisjointScratch
	etaBuf []float64
	att    []float64
	key    []byte
}

// newProtoEval returns the run's protocol evaluator, or nil when the layer
// is disabled. routeScorer branches on nil and scores disabled runs with
// seedOutcome, the seed model's statements, so protocol-off output never
// passes through this layer.
func (sc *Scenario) newProtoEval() *protoEval {
	if !sc.Params.Protocol.Enabled() {
		return nil
	}
	return &protoEval{sc: sc, cfg: sc.Params.Protocol, k: sc.Params.Protocol.Paths()}
}

// pairKey folds the request identity into the draw-seed task index over a
// reused buffer: the same bytes — "src|dst|id|atNanos" — that
// protocol.PairKey hashes, pinned equal by TestPairKeyMatchesBytesFold.
//
//qntn:hotpath once per protocol request evaluation
func (pe *protoEval) pairKey(req netsim.Request, at time.Duration) uint64 {
	b := pe.key[:0]
	b = append(b, req.Src...) //qntn:coldpath amortized growth: key buffer is reused
	b = append(b, '|')        //qntn:coldpath amortized growth: key buffer is reused
	b = append(b, req.Dst...) //qntn:coldpath amortized growth: key buffer is reused
	b = append(b, '|')        //qntn:coldpath amortized growth: key buffer is reused
	b = strconv.AppendInt(b, int64(req.ID), 10)
	b = append(b, '|') //qntn:coldpath amortized growth: key buffer is reused
	b = strconv.AppendInt(b, int64(at), 10)
	pe.key = b
	return runner.FNV64aBytes(b)
}

// outcome runs the full protocol pipeline for one request routed over the
// primary path at topology instant at, on the step's snapshot a (loaded
// once per topology rebuild by the caller, so every request of the step
// shares its flattened rows):
//
//  1. Zero-swap routes (a single edge, e.g. same-LAN fiber) bypass the
//     layer entirely — no heralding wait, no draws, fidelity exactly the
//     seed model's. A naive implementation that charged the 2L/c heralding
//     wait and a swap loop to a direct route would dephase pairs that never
//     sit in memory; the zero-hop regression test pins the bypass.
//  2. Otherwise up to k internally-vertex-disjoint routes are extracted
//     (primary first). Each route attempts an elementary pair per hop,
//     connected by per-relay swaps whose success draws derive from
//     (Config.Seed, request identity, attempt, swap); the surviving
//     end-to-end pair dephases in T2 memories for the route's heralding
//     latency.
//  3. Surviving attempts are sorted best-first and distilled pairwise
//     (protocol.Distill); the request is served iff a pair survives.
//
// The scalar reference in oracletest reimplements this pipeline naively
// (cloned graphs, map Dijkstra, verbatim formulas); the differential matrix
// pins the two DeepEqual-identical.
//
//qntn:hotpath once per routed request with the protocol on
func (pe *protoEval) outcome(a *routing.Adjacency, path []string, req netsim.Request, at time.Duration) (protoOutcome, error) {
	var out protoOutcome
	g := a.Graph()
	model := pe.sc.Params.FidelityModel
	if len(path) <= 2 {
		return seedOutcome(g, &pe.etaBuf, path, model)
	}
	chainSeed := protocol.ChainSeed(pe.cfg.Seed, pe.pairKey(req, at))
	paths, err := pe.ds.ExtractOn(a, path, pe.k)
	if err != nil {
		return out, err
	}
	pe.att = pe.att[:0]
	for j, p := range paths {
		etas, err := g.EdgeEtasInto(pe.etaBuf[:0], p)
		pe.etaBuf = etas
		if err != nil {
			return out, err
		}
		if j == 0 {
			out.primaryEta = product(etas)
		}
		w := protocol.WernerFromRoot(PathFidelity(etas[:1], model))
		ok := true
		for s := 0; s+1 < len(etas); s++ {
			out.swapAttempts++
			if protocol.Draw(chainSeed, uint64(j), uint64(s)) >= pe.cfg.SwapSuccess {
				out.swapFailures++
				ok = false
				break
			}
			w = protocol.SwapWerner(w, protocol.WernerFromRoot(PathFidelity(etas[s+1:s+2], model)))
		}
		if !ok {
			continue
		}
		if len(etas) >= 2 {
			lengthM, err := pe.sc.PathLengthM(p, at)
			if err != nil {
				return out, err
			}
			w = protocol.DephaseWerner(w, HeraldingLatency(lengthM), pe.cfg.MemoryT2)
		}
		pe.att = append(pe.att, w) //qntn:coldpath amortized growth: attempt buffer is reused
	}
	// Best-first stable ordering (insertion sort over the tiny attempt
	// buffer; ≤ k elements, no allocation).
	att := pe.att
	for i := 1; i < len(att); i++ {
		for j := i; j > 0 && att[j] > att[j-1]; j-- {
			att[j], att[j-1] = att[j-1], att[j]
		}
	}
	w, served, rounds, accepted := protocol.Distill(att, chainSeed)
	out.purifyRounds += rounds
	out.purifyAccepted += accepted
	if !served {
		return out, nil
	}
	out.served = true
	out.fidelity = protocol.RootFromWerner(w)
	return out, nil
}

// seedOutcome is the seed model's verdict on a request routed over path on
// g: always served, with the PathFidelity of the path's per-hop
// transmissivities, gathered into the reused *buf. It is the whole verdict
// with the protocol layer off, and the protocol's on a zero-swap route.
//
//qntn:hotpath once per request the seed model scores
func seedOutcome(g *routing.Graph, buf *[]float64, path []string, model FidelityModel) (protoOutcome, error) {
	etas, err := g.EdgeEtasInto((*buf)[:0], path)
	*buf = etas
	if err != nil {
		return protoOutcome{}, err
	}
	return protoOutcome{served: true, fidelity: PathFidelity(etas, model), primaryEta: product(etas)}, nil
}

// routeScorer scores routed requests for the admission core behind every
// request driver: the protocol evaluator's verdict over its snapshot of
// the step's graph when the layer is enabled, otherwise seedOutcome. Its
// buffers are reused across requests, so one routeScorer must never be
// shared across goroutines.
type routeScorer struct {
	model FidelityModel
	pe    *protoEval        // nil unless the protocol layer is enabled
	adj   routing.Adjacency // pe's snapshot of the graph, taken by load
	etas  []float64         // seedOutcome's per-hop transmissivities, reused
}

// newRouteScorer returns the scorer for one run over the scenario.
func (sc *Scenario) newRouteScorer() routeScorer {
	return routeScorer{model: sc.Params.FidelityModel, pe: sc.newProtoEval()}
}

// load takes the protocol's snapshot of g after a topology update; with the
// protocol off there is nothing to snapshot.
func (rs *routeScorer) load(g *routing.Graph) {
	if rs.pe != nil {
		rs.adj.Load(g, disjointCost)
	}
}

// score returns the verdict on req routed over path on g, the graph last
// passed to load, at topology instant at.
//
//qntn:hotpath once per routed request
func (rs *routeScorer) score(g *routing.Graph, path []string, req netsim.Request, at time.Duration) (protoOutcome, error) {
	if rs.pe != nil {
		return rs.pe.outcome(&rs.adj, path, req, at)
	}
	return seedOutcome(g, &rs.etas, path, rs.model)
}
