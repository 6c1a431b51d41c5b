package qntn

import (
	"fmt"
	"math"
	"sort"
	"time"

	"qntn/internal/geo"
	"qntn/internal/netsim"
	"qntn/internal/orbit"
)

// This file implements the visibility-window precomputation behind the
// event-driven simulation path (see eventloop.go for the engine that
// consumes it). The design principle is exactness by conservative superset:
// for every pair that can ever form a link, the scan produces runs of grid
// steps that provably contain every instant at which the pair's cheap
// candidate predicate — the same horizon test and squared-range gate the
// stepped evaluator uses as prefilters — holds. Instants inside a run are
// evaluated with the exact stepEval physics, so the event-driven results are
// bit-identical to the brute-force stepped path; instants outside a run are
// provably rejected by a prefilter the stepped path would apply too.
//
// The stepped path remains the semantic oracle: the differential test suite
// (oracle_equiv_test.go, package oracletest) asserts DeepEqual equality of
// the two paths across every scenario archetype.

// sampleGrid is the uniform sampling lattice of one simulation run:
// steps instants at(k) = k·gap for k in [0, steps).
type sampleGrid struct {
	gap   time.Duration
	steps int
}

// at returns the instant of grid index k.
func (g sampleGrid) at(k int) time.Duration { return time.Duration(k) * g.gap }

// ceilIndex returns the smallest k with at(k) >= t, clamped to [0, steps].
// Half-open fault spans [Start, End) map to index intervals
// [ceilIndex(Start), ceilIndex(End)) under this rounding.
func (g sampleGrid) ceilIndex(t time.Duration) int {
	if t <= 0 {
		return 0
	}
	k := int((t + g.gap - 1) / g.gap)
	if k > g.steps {
		k = g.steps
	}
	return k
}

// coverageGrid returns the grid Coverage and DetailedCoverage iterate: steps
// at 0, step, …, the largest multiple with at(k)+step <= duration (zero
// steps when the duration is shorter than one step). Both topology backends,
// the coverage sweep and VisibilityWindows derive their loop bounds from
// this single definition, pinning the off-by-one behavior for durations
// that are not multiples of the step. step is always Params.TopologyStep,
// never the raw StepInterval, so it is positive.
func coverageGrid(step, duration time.Duration) sampleGrid {
	g := sampleGrid{gap: step}
	if duration >= step {
		g.steps = int((duration-step)/step) + 1
	}
	return g
}

// candGateSlack pads the squared-range candidate gates by a relative margin
// dwarfing float rounding, so a pair the exact evaluator computes at a few
// ulps inside its gate can never fall outside the candidate set. (The gates
// already carry MaxUsableRangeM2's own conservative margin; the slack makes
// the superset property independent of it.)
const candGateSlack = 1e-9

// idxRun is an inclusive run [lo, hi] of grid indices.
type idxRun struct{ lo, hi int }

// runBuilder accumulates maximal runs from a strictly increasing sequence of
// observed indices.
type runBuilder struct {
	lo, hi int
	runs   []idxRun
}

func newRunBuilder() runBuilder { return runBuilder{lo: -1} }

// observe records index k as candidate-true; ks must strictly increase.
func (rb *runBuilder) observe(k int) {
	if rb.lo < 0 {
		rb.lo, rb.hi = k, k
		return
	}
	if k == rb.hi+1 {
		rb.hi = k
		return
	}
	rb.runs = append(rb.runs, idxRun{rb.lo, rb.hi})
	rb.lo, rb.hi = k, k
}

// finish flushes the open run and returns the accumulated runs.
func (rb *runBuilder) finish() []idxRun {
	if rb.lo >= 0 {
		rb.runs = append(rb.runs, idxRun{rb.lo, rb.hi})
		rb.lo = -1
	}
	return rb.runs
}

// mergeRuns sorts runs by lo and merges overlapping or adjacent ones, so the
// result is strictly ordered with gaps of at least two indices.
func mergeRuns(runs []idxRun) []idxRun {
	if len(runs) < 2 {
		return runs
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].lo < runs[b].lo })
	out := runs[:1]
	for _, r := range runs[1:] {
		last := &out[len(out)-1]
		if r.lo <= last.hi+1 {
			if r.hi > last.hi {
				last.hi = r.hi
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// candPair is one windowed node pair plus its candidate predicate: for
// ground↔relay pairs the ground host's horizon test and the padded
// squared-range gate; for relay↔relay pairs the gate alone. For horizon
// pairs i is always the ground host (the frame owner) and j the relay.
type candPair struct {
	i, j    int
	gate    float64
	horizon bool
	frame   geo.Frame
}

// pairCandidate evaluates the candidate predicate on explicit positions.
func pairCandidate(p *candPair, pi, pj geo.Vec3) bool {
	if p.horizon && !p.frame.AboveHorizon(pj) {
		return false
	}
	d := pj.Sub(pi)
	return d.Dot(d) <= p.gate
}

// elementsProvider is implemented by satellite nodes that can expose their
// orbital elements (netsim.SatelliteNode, cachedSatellite). A zero-value
// Elements return (sheet replay) yields no speed bound, forcing dense scans.
type elementsProvider interface{ Elements() orbit.Elements }

func nodeElements(nd netsim.Node) (orbit.Elements, bool) {
	ep, ok := nd.(elementsProvider)
	if !ok {
		return orbit.Elements{}, false
	}
	return ep.Elements(), true
}

// windowScan holds the precomputed candidate runs of one scenario on one
// grid, plus the memoized moving-node positions the event engine replays
// when refreshing evaluator caches. Node kinds, the static/mover split,
// static positions, ground frames and the ISL allowlist come from the
// scenario's node table; pos and filled are indexed by mover slot.
type windowScan struct {
	sc *Scenario
	*nodeTable
	grid sampleGrid

	pos    [][]geo.Vec3
	filled [][]bool

	pairs []candPair
	runs  [][]idxRun // aligned with pairs; merged, ordered, gaps >= 2

	// Per-mover memo of the three analytic fit samples (see analyticRuns):
	// every same-altitude pair shares the same sample instants, so each
	// node needs propagating only once per rate, not once per pair.
	aRate float64
	aPos  [][3]geo.Vec3
	aHave []bool

	// Mover-pair spatial sweep state (see sweepMoverPairs): a strided pass
	// over the grid binning movers into sweepGrid and marking, in pairMark,
	// every mover-ordinal pair that ever comes within the inflated range
	// shell. Unmarked pairs of speed-bounded movers are provably windowless
	// and scanMovingMoving skips them. wild marks movers without a usable
	// speed bound, whose pairs are always scanned.
	sweepGrid    pairGrid
	pairMark     []uint64
	wild         []bool
	sweepScratch []int32
}

// analyticSamples returns moving node i's positions at the three analytic
// fit instants t(m) = m·(π/2)/rate, memoized per (node, rate).
func (ws *windowScan) analyticSamples(i int, rate float64) [3]geo.Vec3 {
	if ws.aRate != rate {
		ws.aRate = rate
		clear(ws.aHave)
	}
	s := ws.slot[i]
	if !ws.aHave[s] {
		for m := 0; m < 3; m++ {
			t := time.Duration(float64(m) * (math.Pi / 2) / rate * float64(time.Second))
			ws.aPos[s][m] = ws.nodes[i].PositionAt(t)
		}
		ws.aHave[s] = true
	}
	return ws.aPos[s]
}

// scanWindows computes the candidate runs of every pair of the scenario's
// nodes that can ever link (fiber pairs are static and handled separately
// by the event engine).
func (sc *Scenario) scanWindows(grid sampleGrid) *windowScan {
	ws := &windowScan{}
	ws.scan(sc, grid)
	return ws
}

// scan (re)computes the window state into ws, reusing its backing arrays —
// pooled engines replay many runs per scenario, and the position-memo slabs
// dominate a fresh scan's allocations.
func (ws *windowScan) scan(sc *Scenario, grid sampleGrid) {
	ws.sc, ws.nodeTable, ws.grid = sc, &sc.table, grid
	ws.pairs = ws.pairs[:0]
	ws.runs = ws.runs[:0]
	if grid.steps == 0 {
		return
	}
	ws.aRate = 0
	ws.aPos = grow(ws.aPos, len(ws.movers))
	ws.aHave = grow(ws.aHave, len(ws.movers))
	clear(ws.aHave)
	ws.pos = grow(ws.pos, len(ws.movers))
	ws.filled = grow(ws.filled, len(ws.movers))
	for s := range ws.pos {
		ws.pos[s] = grow(ws.pos[s], grid.steps)
		if f := ws.filled[s]; cap(f) >= grid.steps {
			f = f[:grid.steps]
			clear(f)
			ws.filled[s] = f
		} else {
			ws.filled[s] = make([]bool, grid.steps)
		}
	}
	ws.scanStaticStatic()
	ws.scanMovingStatic()
	ws.scanMovingMoving()
}

// posAt returns the memoized position of moving node i at grid index k.
//
//qntn:hotpath
func (ws *windowScan) posAt(i, k int) geo.Vec3 {
	s := ws.slot[i]
	if ws.filled[s][k] {
		return ws.pos[s][k]
	}
	p := ws.nodes[i].PositionAt(ws.grid.at(k))
	ws.pos[s][k] = p
	ws.filled[s][k] = true
	return p
}

// posOf returns node i's position at an arbitrary instant, honoring the
// evaluator's static-node convention.
func (ws *windowScan) posOf(i int, t time.Duration) geo.Vec3 {
	if ws.static[i] {
		return ws.staticPos[i]
	}
	return ws.nodes[i].PositionAt(t)
}

func (ws *windowScan) addPair(p candPair, runs []idxRun) {
	ws.pairs = append(ws.pairs, p)
	ws.runs = append(ws.runs, runs)
}

// relayGroundGate returns the padded candidate gate for a ground↔relay pair
// by relay kind, and whether such a link is possible at all.
func (ws *windowScan) relayGroundGate(relayKind netsim.NodeKind) (float64, bool) {
	switch relayKind {
	case netsim.Satellite:
		return ws.sc.spaceMaxRangeM2 * (1 + candGateSlack), true
	case netsim.HAP:
		return ws.sc.hapMaxRangeM2 * (1 + candGateSlack), true
	}
	return 0, false
}

// scanStaticStatic windows the ground-host ↔ HAP pairs, whose geometry never
// changes: the candidate predicate at the frozen geometry decides between a
// full-span run and no window at all. (Ground↔ground is fiber; HAP↔HAP and
// ground-kind nodes without a GroundHost never link.)
func (ws *windowScan) scanStaticStatic() {
	full := idxRun{0, ws.grid.steps - 1}
	gate, _ := ws.relayGroundGate(netsim.HAP)
	for i := range ws.nodes {
		if ws.ground[i] == nil {
			continue
		}
		for j := range ws.nodes {
			if !ws.static[j] || ws.kind[j] != netsim.HAP {
				continue
			}
			p := candPair{i: i, j: j, gate: gate, horizon: true, frame: ws.gFrame[i]}
			if pairCandidate(&p, ws.staticPos[i], ws.staticPos[j]) {
				ws.addPair(p, []idxRun{full})
			}
		}
	}
}

// scanMovingStatic windows every moving relay against the static nodes with
// one Lipschitz-adaptive walk per mover: all static targets are clustered
// (centroid + radius), and whenever the mover's distance to the centroid
// exceeds sqrt(maxGate) + radius, the walk skips ahead by the number of
// steps the mover's bounded speed provably cannot close the gap in — every
// skipped step is candidate-false for every target because the range gate
// alone already fails. In-reach steps check each target's full predicate.
func (ws *windowScan) scanMovingStatic() {
	// Targets: ground hosts and static HAPs (custom ground nodes have no
	// uplink frame).
	var targets []int
	for i := range ws.nodes {
		if ws.ground[i] != nil || (ws.static[i] && ws.kind[i] == netsim.HAP) {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return
	}
	var c geo.Vec3
	for _, ti := range targets {
		c = c.Add(ws.staticPos[ti])
	}
	c = c.Scale(1 / float64(len(targets)))
	radius := 0.0
	for _, ti := range targets {
		if d := ws.staticPos[ti].Distance(c); d > radius {
			radius = d
		}
	}
	gapS := ws.grid.gap.Seconds()
	type check struct {
		pair candPair
		rb   runBuilder
	}
	for _, mi := range ws.movers {
		mk := ws.kind[mi]
		var checks []check
		maxGate := 0.0
		for _, ti := range targets {
			var p candPair
			if ws.ground[ti] != nil {
				gate, ok := ws.relayGroundGate(mk)
				if !ok {
					continue
				}
				p = candPair{i: ti, j: mi, gate: gate, horizon: true, frame: ws.gFrame[ti]}
			} else {
				if mk != netsim.Satellite {
					continue // moving HAP ↔ static HAP never links
				}
				p = candPair{i: ti, j: mi, gate: ws.sc.satHAPMaxRangeM2 * (1 + candGateSlack)}
			}
			if p.gate > maxGate {
				maxGate = p.gate
			}
			checks = append(checks, check{pair: p, rb: newRunBuilder()})
		}
		if len(checks) == 0 {
			continue
		}
		v := 0.0
		if elems, ok := nodeElements(ws.nodes[mi]); ok {
			v = elems.MaxSpeedMPerS()
		}
		reach := math.Sqrt(maxGate) + radius
		for k := 0; k < ws.grid.steps; {
			p := ws.posAt(mi, k)
			if d := p.Distance(c); d > reach {
				skip := 1
				if v > 0 && gapS > 0 {
					if s := int((d - reach) / (v * gapS)); s > 1 {
						skip = s
					}
				}
				k += skip
				continue
			}
			for ci := range checks {
				ch := &checks[ci]
				if pairCandidate(&ch.pair, ws.staticPos[ch.pair.i], p) {
					ch.rb.observe(k)
				}
			}
			k++
		}
		for ci := range checks {
			if runs := checks[ci].rb.finish(); len(runs) > 0 {
				ws.addPair(checks[ci].pair, runs)
			}
		}
	}
}

// scanMovingMoving windows the relay↔relay pairs: analytically for circular
// same-altitude two-body satellite pairs (the paper's constellations),
// otherwise by a pairwise Lipschitz walk. When some pair takes the walk and
// the constellation is large enough, the spatial sweep first marks the pairs
// that ever come near range; unmarked pairs of speed-bounded movers are
// provably windowless and are skipped, which turns the quadratic per-pair
// walk into work near-linear in visible pairs. When every pair is analytic
// (one circular two-body shell, e.g. SpaceGround-108) the sweep is skipped:
// analyticRuns rejects a windowless pair in O(1) from memoized samples, far
// cheaper than propagating every mover along the sweep's stride.
func (ws *windowScan) scanMovingMoving() {
	swept := (moverSweepForce || ws.moverPairWalks()) && ws.sweepMoverPairs()
	for a := 0; a < len(ws.movers); a++ {
		for b := a + 1; b < len(ws.movers); b++ {
			if swept && !ws.wild[a] && !ws.wild[b] && !ws.pairMarked(a, b) {
				continue
			}
			ws.scanMovingPair(ws.movers[a], ws.movers[b])
		}
	}
}

// moverSweepMinMovers is the mover count below which scanMovingMoving keeps
// the plain quadratic loop — the sweep's setup costs more than it saves.
// moverSweepForce runs the sweep even when moverPairWalks reports that no
// pair needs it. Package variables so tests can force the sweep on small
// scenarios and on all-analytic ones.
var (
	moverSweepMinMovers = 24
	moverSweepForce     = false
)

// moverPairWalks reports whether any mover pair takes scanMovingPair's
// pairwiseRuns walk, in O(m) from the movers' kinds and elements and
// before any propagation. A satellite↔moving-HAP pair always walks; a
// satellite pair walks unless analyticCircularPair holds for it, and that
// holds for every satellite pair exactly when all satellites are circular
// two-body orbits sharing one semi-major axis (the pairwise test is an
// equivalence on that class). HAP↔HAP pairs never link. Pairs the ISL grid
// forbids are counted as walking, which only keeps the sweep on.
func (ws *windowScan) moverPairWalks() bool {
	sats, haps := 0, 0
	oneClass := true
	var first orbit.Elements
	for _, i := range ws.movers {
		switch ws.kind[i] {
		case netsim.HAP:
			haps++
		case netsim.Satellite:
			e, ok := nodeElements(ws.nodes[i])
			if sats == 0 {
				first = e
			}
			oneClass = oneClass && ok && analyticCircularPair(first, e)
			sats++
		}
	}
	return (sats > 0 && haps > 0) || (sats > 1 && !oneClass)
}

// sweepMoverPairs runs the strided spatial sweep and reports whether the
// pairMark bitmap is valid. scanMovingMoving calls it only when some pair
// walks (moverPairWalks): the screen skips pairwiseRuns walks, and on an
// all-analytic constellation it would only skip O(1) closed-form checks.
//
// Correctness: suppose a speed-bounded mover pair produces a run. Then some
// instant t* ∈ [−padS, durS+padS] (seconds) has pair distance within
// sqrt(gate+eps) — pairwiseRuns observes a grid instant with d² ≤ gate, and
// an analyticRuns run exists only when a sub-(gate+eps) arc of the
// continuous distance intersects the padded horizon, with padS = gapS/8+1e-6
// matching analyticRuns' pad and eps ≤ 4e-9·a² its fit slack. The sweep
// samples every stride-th grid instant, so some sampled t0 has
// |t*−t0| ≤ stride·gapS + padS, during which each endpoint moves at most
// vmax·|t*−t0|. The pair's sampled distance is therefore at most
//
//	sqrt(gate) + sqrt(eps) + 2·vmax·(stride·gapS + padS) < reach,
//
// and sweepGrid's cell edge is at least reach, so the pair differs by at
// most one cell per axis at t0 and neighborsAfter marks it. Contrapositive:
// unmarked speed-bounded pairs have no run, and skipping them leaves the
// window set — and hence every event-driven result — identical.
func (ws *windowScan) sweepMoverPairs() bool {
	m := len(ws.movers)
	if m < moverSweepMinMovers || ws.sc.Params.DisableSpatialIndex || ws.grid.steps == 0 {
		return false
	}
	ws.wild = grow(ws.wild, m)
	sats, haps := 0, 0
	vmax, maxNorm := 0.0, 0.0
	for s, i := range ws.movers {
		switch ws.kind[i] {
		case netsim.Satellite:
			sats++
		case netsim.HAP:
			haps++
		}
		wild := true
		if elems, ok := nodeElements(ws.nodes[i]); ok {
			if v := elems.MaxSpeedMPerS(); v > 0 {
				wild = false
				if v > vmax {
					vmax = v
				}
			}
		}
		ws.wild[s] = wild
		if nm := ws.nodes[i].PositionAt(0).Norm(); nm > maxNorm {
			maxNorm = nm
		}
	}
	// The widest gate any mover pair can use; a non-finite applicable gate
	// means distance never proves a pair windowless.
	maxGate := 0.0
	if sats >= 2 {
		maxGate = ws.sc.spaceMaxRangeM2
	}
	if haps >= 1 && sats >= 1 && ws.sc.satHAPMaxRangeM2 > maxGate {
		maxGate = ws.sc.satHAPMaxRangeM2
	}
	gapS := ws.grid.gap.Seconds()
	if !(maxGate > 0) || math.IsInf(maxGate, 1) || vmax <= 0 || gapS <= 0 {
		return false
	}
	padS := gapS/8 + 1e-6
	stride := int(math.Sqrt(maxGate) / (2 * vmax * gapS))
	if stride < 1 {
		stride = 1
	}
	if stride > 64 {
		stride = 64
	}
	// 7e-5·maxNorm dominates sqrt(eps) = sqrt(4e-9)·a for every circular
	// pair (a ≤ maxNorm); the relative factor and +1 m absorb float
	// rounding against the exact gates.
	reach := math.Sqrt(maxGate)*(1+1e-6) + 7e-5*maxNorm + 2*vmax*(float64(stride)*gapS+padS) + 1.0
	g := &ws.sweepGrid
	g.configure(reach, maxNorm)
	words := (m*m + 63) / 64
	ws.pairMark = grow(ws.pairMark, words)
	clear(ws.pairMark)
	g.beginBuild(m)
	for k := 0; k < ws.grid.steps; k += stride {
		for s, i := range ws.movers {
			g.cell[s] = g.cellIndex(ws.posAt(i, k))
		}
		g.finishBuild(0, m)
		for a := 0; a < m; a++ {
			nbrs := g.neighborsAfter(int32(a), ws.sweepScratch[:0])
			for _, b := range nbrs {
				id := a*m + int(b)
				ws.pairMark[id>>6] |= 1 << (id & 63)
			}
			ws.sweepScratch = nbrs
		}
	}
	return true
}

// pairMarked reports whether mover-ordinal pair (a, b), a < b, was marked by
// the sweep.
func (ws *windowScan) pairMarked(a, b int) bool {
	id := a*len(ws.movers) + b
	return ws.pairMark[id>>6]&(1<<(id&63)) != 0
}

// analyticCircularPair reports whether the pair's squared distance is the
// exact single-harmonic form analyticRuns assumes.
func analyticCircularPair(a, b orbit.Elements) bool {
	return a.Eccentricity == 0 && b.Eccentricity == 0 &&
		!a.ApplyJ2 && !b.ApplyJ2 &&
		a.SemiMajorAxisM == b.SemiMajorAxisM &&
		a.SemiMajorAxisM > geo.EarthRadiusM
}

func (ws *windowScan) scanMovingPair(i, j int) {
	ki, kj := ws.kind[i], ws.kind[j]
	var gate float64
	switch {
	case ki == netsim.Satellite && kj == netsim.Satellite:
		if !ws.islAllowed(i, j) {
			return // the ISL allowlist forbids this pair outright
		}
		gate = ws.sc.spaceMaxRangeM2 * (1 + candGateSlack)
	case (ki == netsim.Satellite && kj == netsim.HAP) || (ki == netsim.HAP && kj == netsim.Satellite):
		gate = ws.sc.satHAPMaxRangeM2 * (1 + candGateSlack)
	default:
		return // HAP↔HAP (and unknown kinds) never link
	}
	p := candPair{i: i, j: j, gate: gate}
	ei, oki := nodeElements(ws.nodes[i])
	ej, okj := nodeElements(ws.nodes[j])
	var runs []idxRun
	if oki && okj && analyticCircularPair(ei, ej) {
		runs = ws.analyticRuns(i, j, ei, gate)
	} else {
		runs = ws.pairwiseRuns(i, j, gate)
	}
	if len(runs) > 0 {
		ws.addPair(p, runs)
	}
}

// analyticRuns computes the candidate runs of a circular same-altitude
// two-body satellite pair in closed form. Both positions are unit vectors
// rotating at the shared mean motion n, scaled by the semi-major axis, so
// their dot product contains only a constant and a 2n harmonic and the
// squared ECI distance is exactly d²(t) = D0 + X·cos(2nt) + Y·sin(2nt); the
// ECEF rotation preserves distances, so the ECEF form is identical. Three
// samples at 2nt ∈ {0, π/2, π} recover the coefficients and the sub-gate
// arcs follow from acos. The fit slack and the time pad keep the runs a
// conservative superset of the true candidate set — the engine re-evaluates
// every in-window instant exactly, so padding costs work, never correctness.
func (ws *windowScan) analyticRuns(i, j int, e orbit.Elements, gate float64) []idxRun {
	rate := 2 * e.MeanMotion()
	pi, pj := ws.analyticSamples(i, rate), ws.analyticSamples(j, rate)
	var s [3]float64
	for m := 0; m < 3; m++ {
		d := pj[m].Sub(pi[m])
		s[m] = d.Dot(d)
	}
	d0 := (s[0] + s[2]) / 2
	x := s[0] - d0
	y := s[1] - d0
	r := math.Hypot(x, y)
	eps := 4e-9 * e.SemiMajorAxisM * e.SemiMajorAxisM
	steps := ws.grid.steps
	if d0-r > gate+eps {
		return nil // the pair never comes within range
	}
	if d0+r <= gate+eps {
		return []idxRun{{0, steps - 1}} // the pair never leaves range
	}
	// The candidate condition d²(t) <= gate+eps is cos(2nt−ψ) <= c, whose
	// solutions are the arcs 2nt−ψ ∈ [w, 2π−w] (mod 2π).
	c := (gate + eps - d0) / r
	if c < -1 {
		c = -1
	} else if c > 1 {
		c = 1
	}
	w := math.Acos(c)
	psi := math.Atan2(y, x)
	gapS := ws.grid.gap.Seconds()
	padS := gapS/8 + 1e-6
	durS := ws.grid.at(steps - 1).Seconds()
	twoPi := 2 * math.Pi
	var runs []idxRun
	mStart := int(math.Floor(((-padS)*rate-psi-(twoPi-w))/twoPi)) - 1
	for m := mStart; ; m++ {
		start := (w + psi + twoPi*float64(m)) / rate
		end := (twoPi - w + psi + twoPi*float64(m)) / rate
		if start > durS+padS {
			break
		}
		if end < -padS {
			continue
		}
		lo := int(math.Ceil((start - padS) / gapS))
		hi := int(math.Floor((end + padS) / gapS))
		if lo < 0 {
			lo = 0
		}
		if hi > steps-1 {
			hi = steps - 1
		}
		if lo <= hi {
			runs = append(runs, idxRun{lo, hi})
		}
	}
	return mergeRuns(runs)
}

// pairwiseRuns is the dense fallback for moving pairs without the analytic
// form: a Lipschitz walk on the pair's own distance, skipping ahead when the
// combined speed bound proves the gate cannot close in time. Without bounds
// for both nodes (sheet replay, custom nodes) every step is checked.
func (ws *windowScan) pairwiseRuns(i, j int, gate float64) []idxRun {
	v := 0.0
	ei, oki := nodeElements(ws.nodes[i])
	ej, okj := nodeElements(ws.nodes[j])
	if oki && okj {
		vi, vj := ei.MaxSpeedMPerS(), ej.MaxSpeedMPerS()
		if vi > 0 && vj > 0 {
			v = vi + vj
		}
	}
	gapS := ws.grid.gap.Seconds()
	reach := math.Sqrt(gate)
	rb := newRunBuilder()
	for k := 0; k < ws.grid.steps; {
		d := ws.posAt(j, k).Sub(ws.posAt(i, k))
		d2 := d.Dot(d)
		if d2 <= gate {
			rb.observe(k)
			k++
			continue
		}
		skip := 1
		if v > 0 && gapS > 0 {
			if s := int((math.Sqrt(d2) - reach) / (v * gapS)); s > 1 {
				skip = s
			}
		}
		k += skip
	}
	return rb.finish()
}

// candAt evaluates pair p's candidate predicate at an arbitrary instant —
// the refinement and property-test probe.
func (ws *windowScan) candAt(p int, t time.Duration) bool {
	pr := &ws.pairs[p]
	return pairCandidate(pr, ws.posOf(pr.i, t), ws.posOf(pr.j, t))
}

// Window is one refined visibility window. Start is an instant at which the
// candidate predicate holds, with a predicate sign change bracketed within
// windowRefineTol below it (unless ClippedStart: the window was already open
// at t = 0). End is the first located instant at which the predicate no
// longer holds, again within windowRefineTol of the true crossing (unless
// ClippedEnd: the window was still open at the evaluation horizon).
type Window struct {
	Start        time.Duration
	End          time.Duration
	ClippedStart bool
	ClippedEnd   bool
}

// PairWindows lists the refined visibility windows of one node pair, sorted
// and non-overlapping.
type PairWindows struct {
	A, B    string
	Windows []Window
}

// windowRefineTol is the bisection tolerance of window refinement.
const windowRefineTol = time.Millisecond

// bisect refines a predicate crossing inside (lo, hi]. For rising crossings
// the predicate is false at lo and true at hi; for falling crossings true at
// lo and false at hi. Either way the invariant is maintained and hi is
// returned once the bracket is within windowRefineTol.
func (ws *windowScan) bisect(p int, lo, hi time.Duration, rising bool) time.Duration {
	for hi-lo > windowRefineTol {
		mid := lo + (hi-lo)/2
		if ws.candAt(p, mid) == rising {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// refinePair converts pair p's candidate runs into refined windows. Runs are
// conservative supersets, so each endpoint first snaps to the outermost
// predicate-true grid index (padding-only runs vanish) and then bisects into
// the adjacent grid gap, which brackets a sign change by construction.
func (ws *windowScan) refinePair(p int, duration time.Duration) []Window {
	var out []Window
	for _, r := range ws.runs[p] {
		firstK, lastK := -1, -1
		for k := r.lo; k <= r.hi; k++ {
			if ws.candAt(p, ws.grid.at(k)) {
				firstK = k
				break
			}
		}
		if firstK < 0 {
			continue
		}
		for k := r.hi; k >= firstK; k-- {
			if ws.candAt(p, ws.grid.at(k)) {
				lastK = k
				break
			}
		}
		var w Window
		if firstK == 0 {
			w.ClippedStart = true
		} else {
			w.Start = ws.bisect(p, ws.grid.at(firstK-1), ws.grid.at(firstK), true)
		}
		if lastK == ws.grid.steps-1 {
			w.End, w.ClippedEnd = duration, true
		} else {
			w.End = ws.bisect(p, ws.grid.at(lastK), ws.grid.at(lastK+1), false)
		}
		out = append(out, w)
	}
	return out
}

// VisibilityWindows computes the refined visibility windows of every node
// pair that can link during the given horizon, on the scenario's coverage
// grid (one sample per Params.TopologyStep). Windows are sorted and non-overlapping
// per pair and lie within [0, duration]; pairs are sorted by ID. Fiber pairs
// are omitted (their connectivity is static).
func (sc *Scenario) VisibilityWindows(duration time.Duration) ([]PairWindows, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("qntn: non-positive windows duration %v", duration)
	}
	nodes := sc.table.nodes
	ws := sc.scanWindows(coverageGrid(sc.Params.TopologyStep(), duration))
	var out []PairWindows
	for p := range ws.pairs {
		wins := ws.refinePair(p, duration)
		if len(wins) == 0 {
			continue
		}
		out = append(out, PairWindows{
			A:       nodes[ws.pairs[p].i].ID(),
			B:       nodes[ws.pairs[p].j].ID(),
			Windows: wins,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].A != out[b].A {
			return out[a].A < out[b].A
		}
		return out[a].B < out[b].B
	})
	return out, nil
}
