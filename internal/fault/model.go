package fault

import (
	"sync"
	"time"

	"qntn/internal/netsim"
)

// Model decorates a link model with a fault schedule: links touching a
// failed platform vanish, and ground↔relay FSO links are attenuated (or
// severed) during weather blackouts. The per-pair Evaluate is the reference
// semantics; BeginStep batches the schedule lookups once per instant and
// delegates to the inner model's own step evaluator when it has one, so the
// decorated model keeps the underlying fast path (per-node caches,
// prefilters, arena reuse) intact.
type Model struct {
	inner netsim.LinkModel
	sched *Schedule
	// minEta re-gates an attenuated link against the scenario's
	// transmissivity threshold, mirroring the inner model's own gate.
	minEta float64
	pool   sync.Pool
}

// NewModel wraps inner with the schedule. minEta is the transmissivity
// threshold attenuated links are re-gated against (pass the scenario's
// gating threshold; zero keeps any positive attenuated link).
func NewModel(inner netsim.LinkModel, sched *Schedule, minEta float64) *Model {
	return &Model{inner: inner, sched: sched, minEta: minEta}
}

// Schedule returns the fault schedule.
func (m *Model) Schedule() *Schedule { return m.sched }

// crossesWeather reports whether a link between the two kinds traverses the
// lower atmosphere: exactly one endpoint on the ground. Fiber (both ground)
// and space-space links are weather-immune.
func crossesWeather(ka, kb netsim.NodeKind) bool {
	return (ka == netsim.Ground) != (kb == netsim.Ground)
}

// ApplyWeather attenuates eta during a blackout and re-gates it. The second
// return is false when the blackout severs the link. Exported so the
// event-driven coverage engine can replicate the decorator's semantics when
// it evaluates pairs outside the BeginStep machinery.
//
//qntn:hotpath
func (m *Model) ApplyWeather(eta float64) (float64, bool) {
	eta *= m.sched.cfg.WeatherAttenuation
	if eta <= 0 || eta < m.minEta {
		return 0, false
	}
	return eta, true
}

// Evaluate implements netsim.LinkModel.
func (m *Model) Evaluate(a, b netsim.Node, t time.Duration) (float64, bool) {
	if m.sched.Down(a.ID(), t) || m.sched.Down(b.ID(), t) {
		return 0, false
	}
	eta, ok := m.inner.Evaluate(a, b, t)
	if !ok {
		return 0, false
	}
	if m.sched.Weather(t) && crossesWeather(a.Kind(), b.Kind()) {
		return m.ApplyWeather(eta)
	}
	return eta, true
}

// BeginStep implements netsim.StepModel: per-node down bits and the weather
// bit are resolved once per instant, then pair queries run against the
// inner model's evaluator (its batched one when available).
//
//qntn:hotpath one call per topology step of every sweep worker
func (m *Model) BeginStep(nodes []netsim.Node, t time.Duration) netsim.StepEvaluator {
	se, _ := m.pool.Get().(*stepEval)
	if se == nil {
		//qntn:coldpath pool miss: first checkout constructs the evaluator
		se = &stepEval{m: m}
	}
	if !se.sameNodes(nodes) {
		//qntn:coldpath static caches rebuild only when the node set changes
		se.init(nodes)
	}
	se.reset(t)
	if sm, ok := m.inner.(netsim.StepModel); ok {
		se.inner = sm.BeginStep(nodes, t)
	}
	return se
}

// stepEval is the decorator's per-instant evaluator: static per-node span
// lists and ground flags survive across steps (the node set is fixed for a
// scenario's lifetime), only the down/weather bits refresh each instant.
type stepEval struct {
	m     *Model
	nodes []netsim.Node

	// Static while the node set is unchanged.
	spans  [][]Span // per-node downtime (nil for never-failing nodes)
	ground []bool

	// Per-step.
	t         time.Duration
	down      []bool
	nodesDown int
	weather   bool
	inner     netsim.StepEvaluator // nil when the inner model is per-pair only
}

// reset refreshes the per-step fault state for instant t: one schedule
// lookup per node plus the weather bit. Pooled evaluators carry the
// previous step's bits, so every checkout must pass through here.
//
//qntn:hotpath
func (se *stepEval) reset(t time.Duration) {
	se.t = t
	se.nodesDown = 0
	for i := range se.nodes {
		se.down[i] = spanAt(se.spans[i], t)
		if se.down[i] {
			se.nodesDown++
		}
	}
	se.weather = se.m.sched.Weather(t)
}

// FaultStats implements netsim.FaultStatser: the fault state resolved for
// this step.
//
//qntn:hotpath
func (se *stepEval) FaultStats() (nodesDown int, weather bool) {
	return se.nodesDown, se.weather
}

// PairStats implements netsim.PairStatser by forwarding the inner
// evaluator's prefilter counts, so decorating a scenario with faults keeps
// its telemetry visible.
//
//qntn:hotpath
func (se *stepEval) PairStats() (horizonRejects, rangeRejects, indexCulled int64) {
	if ps, ok := se.inner.(netsim.PairStatser); ok {
		return ps.PairStats()
	}
	return 0, 0, 0
}

// CandidatePairs implements netsim.PairEnumerator by forwarding the inner
// evaluator's spatial index. Sound because fault injection only ever
// removes links — a superset of the inner model's usable pairs is a
// superset of the decorated model's too.
//
//qntn:hotpath
func (se *stepEval) CandidatePairs() ([]netsim.PackedPair, bool) {
	if pe, ok := se.inner.(netsim.PairEnumerator); ok {
		return pe.CandidatePairs()
	}
	return nil, false
}

// sameNodes reports whether the static caches were built for exactly this
// node slice (node identity, not just IDs).
//
//qntn:hotpath
func (se *stepEval) sameNodes(nodes []netsim.Node) bool {
	if len(se.nodes) != len(nodes) {
		return false
	}
	for i, n := range nodes {
		if se.nodes[i] != n {
			return false
		}
	}
	return true
}

// init rebuilds the static per-node caches.
func (se *stepEval) init(nodes []netsim.Node) {
	n := len(nodes)
	se.nodes = append(se.nodes[:0], nodes...)
	se.spans = growSpans(se.spans, n)
	se.ground = growBools(se.ground, n)
	se.down = growBools(se.down, n)
	for i, node := range nodes {
		se.spans[i] = se.m.sched.down[node.ID()]
		se.ground[i] = node.Kind() == netsim.Ground
	}
}

func growSpans(s [][]Span, n int) [][]Span {
	if cap(s) >= n {
		return s[:n]
	}
	return make([][]Span, n)
}

func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

// EvaluatePair implements netsim.StepEvaluator, mirroring Model.Evaluate
// exactly: down gate, inner physics, then the weather gate.
//
//qntn:hotpath every node pair of every step goes through here
func (se *stepEval) EvaluatePair(i, j int) (float64, bool) {
	if se.down[i] || se.down[j] {
		return 0, false
	}
	var eta float64
	var ok bool
	if se.inner != nil {
		eta, ok = se.inner.EvaluatePair(i, j)
	} else {
		eta, ok = se.m.inner.Evaluate(se.nodes[i], se.nodes[j], se.t)
	}
	if !ok {
		return 0, false
	}
	if se.weather && se.ground[i] != se.ground[j] {
		return se.m.ApplyWeather(eta)
	}
	return eta, true
}

// Close implements netsim.StepEvaluator, releasing the inner evaluator and
// returning this one to the model's pool.
//
//qntn:hotpath
func (se *stepEval) Close() {
	if se.inner != nil {
		se.inner.Close()
		se.inner = nil
	}
	se.m.pool.Put(se)
}
