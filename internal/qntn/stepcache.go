package qntn

import (
	"time"

	"qntn/internal/channel"
	"qntn/internal/fault"
	"qntn/internal/geo"
	"qntn/internal/netsim"
)

// scenarioModel binds a Scenario to netsim's link-model interfaces. The
// per-pair Evaluate is the reference semantics; BeginStep returns the
// batched fast path, which reproduces Evaluate's results exactly (the
// snapshot equivalence tests assert bit-identity pair by pair).
type scenarioModel struct{ sc *Scenario }

// Evaluate implements netsim.LinkModel: the fault gate around the link
// physics, in stepEval.EvaluatePair's order — a downed endpoint removes
// the link, then the physics decide, then weather attenuates a
// ground↔relay link.
func (m scenarioModel) Evaluate(a, b netsim.Node, t time.Duration) (float64, bool) {
	sc := m.sc
	if sc.faults != nil && (sc.faults.Down(a.ID(), t) || sc.faults.Down(b.ID(), t)) {
		return 0, false
	}
	eta, ok := sc.evaluateLink(a, b, t)
	if ok && sc.faults != nil && sc.faults.Weather(t) && (a.Kind() == netsim.Ground) != (b.Kind() == netsim.Ground) {
		return sc.weatherGate(eta)
	}
	return eta, ok
}

// weatherGate attenuates the transmissivity of a ground↔relay link under a
// weather blackout and re-gates it against the scenario's threshold. The
// second return is false when the blackout severs the link (always, at the
// default zero attenuation). Fiber and space-space links never reach it.
//
//qntn:hotpath
func (sc *Scenario) weatherGate(eta float64) (float64, bool) {
	eta *= sc.Params.Fault.WeatherAttenuation
	if eta <= 0 || eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// BeginStep implements netsim.StepModel. The network passes its own node
// list, which is the scenario's node table for as long as no node is added
// after assembly (beginStep checks).
func (m scenarioModel) BeginStep(_ []netsim.Node, t time.Duration) netsim.StepEvaluator {
	return m.sc.beginStep(t)
}

// lateNodePanic is beginStep's message for a node added to Scenario.Net
// after assembly.
const lateNodePanic = "qntn: a node was added to Scenario.Net after assembly; the scenario's node table, LAN hosts, relay list and fault schedule cover only the assembled nodes"

// beginStep checks out a step evaluator over the scenario's node set at
// instant t, drawing from the scenario's pool so steady-state snapshots
// allocate nothing. The caller must Close the evaluator to return it to the
// pool. Evaluators are independent, so concurrent sweep workers can each
// hold one. A node added to Net after assembly is in none of the
// scenario's per-node state (node table, LAN hosts, relay list, fault
// schedule), so checkout refuses it.
//
//qntn:hotpath one call per topology step of every sweep worker
func (sc *Scenario) beginStep(t time.Duration) *stepEval {
	if sc.Net.NumNodes() != len(sc.table.nodes) {
		panic(lateNodePanic)
	}
	se, _ := sc.stepPool.Get().(*stepEval)
	if se == nil {
		//qntn:coldpath pool miss: first checkout constructs the evaluator
		se = sc.newStepEval()
	}
	se.reset(t)
	return se
}

// stepEval is the per-instant link-evaluation fast path: it hoists every
// per-node quantity out of the O(N²) pair loop — each relay's position and
// geodetic conversion and each ground host's darkness are computed exactly
// once per timestep, each relay's observation frame at most once — and then
// answers pair queries from the cache. Cheap conservative prefilters
// (horizon test, squared-range gate) reject most pairs before the full FSO
// evaluation; pairs that survive run the exact reference computation, so
// results are bit-identical to Scenario.evaluateLink. On a faulted
// scenario the evaluator also holds the instant's fault state, which
// EvaluatePair gates every pair on.
//
// The static per-node data (kinds, ground frames, fiber CSR, ISL rows,
// static cells, fault spans) is the scenario's node table, embedded by
// value: construction copies its slice headers, so every evaluator shares
// the table's arrays, and hot-path reads stay one index away. The
// evaluator owns only per-instant state, its grid buckets and its
// candidate scratch.
type stepEval struct {
	sc *Scenario
	nodeTable

	// Per-step data (valid for one instant t).
	t     time.Duration
	pos   []geo.Vec3  // relays: PositionAt(t)
	normM []float64   // relays: pos.Norm()
	lla   []geo.LLA   // relays: geo.ToLLA(pos)
	frame []geo.Frame // relays: observation frame at lla, see relayFrame
	dark  []bool      // ground hosts: IsDark (when RequireDarkness)

	// frameOK[i] reports whether frame[i] was built for the current
	// position; refreshes clear it and relayFrame builds the frame on the
	// first read, so relays no pair looks at never pay for the trig.
	frameOK []bool

	// Spatial index buckets (see spatialindex.go), over the table's cell
	// geometry; static nodes keep their table cell, only movers re-bin per
	// step. Fiber pairs are not FSO-range-gated and therefore bypass the
	// grid.
	grid pairGrid

	// Per-step candidate list, built lazily on the first CandidatePairs
	// call so callers that evaluate targeted pairs (the sweep engine, the
	// event-driven engine) never pay for it.
	cand        []netsim.PackedPair
	scratch     []int32
	candBuilt   bool
	indexCulled int64

	// Per-step prefilter hit counts, drained via PairStats. Plain ints:
	// an evaluator is single-goroutine between BeginStep and Close, and
	// incrementing them is noise next to the geometry they sit beside.
	horizonRejects int64
	rangeRejects   int64

	// Fault state: down stays nil and the rest zero on a fault-free
	// scenario. down[i] reports node i failed at the current instant and
	// nodesDown counts the set bits; weather reports a blackout. The
	// stepped backend looks them up in reset from the table's spans, the
	// event engine writes them from its outage and weather events.
	down      []bool
	nodesDown int
	weather   bool
}

// FaultStats implements netsim.FaultStatser: the fault state resolved for
// this step.
//
//qntn:hotpath
func (se *stepEval) FaultStats() (nodesDown int, weather bool) {
	return se.nodesDown, se.weather
}

// setDown sets node i's down bit, keeping nodesDown in step.
//
//qntn:hotpath
func (se *stepEval) setDown(i int, down bool) {
	if se.down[i] == down {
		return
	}
	se.down[i] = down
	if down {
		se.nodesDown++
	} else {
		se.nodesDown--
	}
}

// PairStats implements netsim.PairStatser: the number of pairs this step
// rejected by the horizon and squared-range prefilters, plus the number the
// spatial index culled from the candidate set before evaluation.
//
//qntn:hotpath
func (se *stepEval) PairStats() (horizonRejects, rangeRejects, indexCulled int64) {
	return se.horizonRejects, se.rangeRejects, se.indexCulled
}

// CandidatePairs implements netsim.PairEnumerator: a sorted conservative
// superset of the step's usable pairs, or ok=false when the node set is too
// small, the index is disabled, or a range bound is unusable — callers then
// fall back to the dense scan. The list is built lazily and cached for the
// step.
//
//qntn:hotpath
func (se *stepEval) CandidatePairs() ([]netsim.PackedPair, bool) {
	if !se.grid.ok {
		return nil, false
	}
	if !se.candBuilt {
		se.buildCandidates()
	}
	return se.cand, true
}

// buildCandidates bins this step's node positions into the grid (static
// nodes reuse their precomputed cells) and gathers, per node i, the sorted
// candidate partners j > i: static fiber partners plus grid neighbors
// within one cell. Ground↔ground grid hits are dropped — same-network pairs
// came from the fiber list and cross-network pairs can never link — so the
// gather is duplicate-free. The leading run of ground hosts is not
// bucketed at all: only gathers of lower-index nodes could find such a
// host, those are ground hosts of the same run, and they drop ground hits
// anyway; the run still uses its cells for its own gathers. Under an ISL
// allowlist a satellite gathers with islCandidates instead, which leaves
// out exactly the satellite pairs the allowlist forbids. Emitting per-i
// sorted runs yields a globally ascending packed list, i.e. exact
// dense-loop order.
//
//qntn:hotpath
func (se *stepEval) buildCandidates() {
	se.candBuilt = true
	n := len(se.nodes)
	g := &se.grid
	g.beginBuild(n)
	for i := 0; i < n; i++ {
		if c := se.staticCell[i]; c >= 0 {
			g.cell[i] = c
		} else {
			g.cell[i] = g.cellIndex(se.pos[i])
		}
	}
	g.finishBuild(int(se.groundLead), n)
	se.cand = se.cand[:0]
	for i := 0; i < n; i++ {
		s := se.scratch[:0]
		if se.islNbr != nil && se.kind[i] == netsim.Satellite {
			s = se.islCandidates(int32(i), s)
		} else {
			for _, j := range se.fiberList[se.fiberStart[i]:se.fiberStart[i+1]] {
				//qntn:coldpath amortized growth: scratch capacity is stable
				s = append(s, j)
			}
			nf := len(s)
			s = g.neighborsAfter(int32(i), s)
			if se.kind[i] == netsim.Ground {
				// Drop ground↔ground grid hits: they landed after the fiber
				// prefix, which already holds the only linkable ones.
				w := nf
				for _, j := range s[nf:] {
					if se.kind[j] == netsim.Ground {
						continue
					}
					s[w] = j
					w++
				}
				s = s[:w]
			}
		}
		insertionSortI32(s)
		for _, j := range s {
			//qntn:coldpath amortized growth: candidate capacity is stable
			se.cand = append(se.cand, netsim.PackPair(i, int(j)))
		}
		se.scratch = s
	}
	se.indexCulled = int64(n)*int64(n-1)/2 - int64(len(se.cand))
}

// islCandidates appends satellite i's candidate partners j > i to s when
// the scenario has an ISL allowlist. Satellite partners come from i's
// static ISL row, each kept only when its cell lies in the 3×3×3
// neighborhood of i's cell: that is exactly the set of allowed pairs the
// grid gather offers, so every pair that reaches the physics loop, and
// with it every prefilter count, is unchanged, and only the forbidden
// pairs move into IndexCulled. Non-satellite partners (HAPs) still come
// from the grid, scanned only when such a node follows i.
//
//qntn:hotpath
func (se *stepEval) islCandidates(i int32, s []int32) []int32 {
	g := &se.grid
	ci := g.cell[i]
	for _, j := range se.islNbr[i] {
		if j > i && g.adjacent(ci, g.cell[j]) {
			//qntn:coldpath amortized growth: scratch capacity is stable
			s = append(s, j)
		}
	}
	if i < se.lastNonSat {
		ns := len(s)
		s = g.neighborsAfter(i, s)
		// Satellite grid hits are either already in the ISL prefix or
		// forbidden by the allowlist.
		w := ns
		for _, j := range s[ns:] {
			if se.kind[j] == netsim.Satellite {
				continue
			}
			s[w] = j
			w++
		}
		s = s[:w]
	}
	return s
}

// grow returns s resized to n elements, reusing its backing array when
// possible. Contents are unspecified — callers overwrite every element.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// newStepEval constructs an evaluator on a pool miss: it sizes the
// per-step arrays and, when the spatial index applies, primes the grid
// buckets, gather scratch and candidate list with one candidate build at
// t=0, so the first real snapshot runs at steady state instead of
// allocating inside the first hot step. A little headroom on the candidate
// list absorbs instants with slightly larger candidate sets than t=0.
func (sc *Scenario) newStepEval() *stepEval {
	n := len(sc.table.nodes)
	se := &stepEval{
		sc:        sc,
		nodeTable: sc.table,
		pos:       make([]geo.Vec3, n),
		normM:     make([]float64, n),
		lla:       make([]geo.LLA, n),
		frame:     make([]geo.Frame, n),
		frameOK:   make([]bool, n),
		dark:      make([]bool, n),
	}
	if sc.faults != nil {
		se.down = make([]bool, n)
	}
	if se.cells.dim == 0 {
		return se
	}
	se.grid.install(se.cells)
	for _, i := range se.movers {
		se.pos[i] = se.nodes[i].PositionAt(0)
	}
	se.buildCandidates()
	if c := 3 * len(se.cand) / 2; cap(se.cand) < c {
		se.cand = make([]netsim.PackedPair, 0, c)
	}
	se.candBuilt = false
	se.indexCulled = 0
	return se
}

// reset recomputes the per-step caches for instant t: one position, norm
// and geodetic conversion per relay (frames follow on demand); one darkness
// bit per ground host; on a faulted scenario, one schedule lookup per node
// and the weather bit.
//
//qntn:hotpath
func (se *stepEval) reset(t time.Duration) {
	se.t = t
	se.horizonRejects = 0
	se.rangeRejects = 0
	se.indexCulled = 0
	se.candBuilt = false
	sc := se.sc
	requireDark := sc.Params.RequireDarkness
	var twilightRad float64
	if requireDark {
		twilightRad = sc.Params.twilight()
	}
	for i, node := range se.nodes {
		if se.kind[i] == netsim.Ground {
			if requireDark && se.ground[i] != nil {
				se.dark[i] = sc.sun.IsDark(se.ground[i].LLA(), t, twilightRad)
			}
			continue
		}
		p := node.PositionAt(t)
		se.pos[i] = p
		se.normM[i] = p.Norm()
		se.lla[i] = geo.ToLLA(p)
		se.frameOK[i] = false
	}
	if sc.faults != nil {
		for i := range se.nodes {
			se.setDown(i, fault.SpanAt(se.spans[i], t))
		}
		se.weather = sc.faults.Weather(t)
	}
}

// setInstant rebinds the evaluator to instant t without touching any cached
// per-node data. The event-driven engine uses it together with refreshNode /
// refreshRelayAt to refresh only the nodes that participate in open
// visibility windows, instead of reset's full per-node sweep.
func (se *stepEval) setInstant(t time.Duration) {
	se.t = t
	se.horizonRejects = 0
	se.rangeRejects = 0
	se.indexCulled = 0
	se.candBuilt = false
}

// refreshNode recomputes the per-step cache entries of node i at the
// evaluator's current instant — exactly reset's per-node body for one node.
func (se *stepEval) refreshNode(i int) {
	sc := se.sc
	t := se.t
	if se.kind[i] == netsim.Ground {
		if sc.Params.RequireDarkness && se.ground[i] != nil {
			se.dark[i] = sc.sun.IsDark(se.ground[i].LLA(), t, sc.Params.twilight())
		}
		return
	}
	se.refreshRelayAt(i, se.nodes[i].PositionAt(t))
}

// refreshRelayAt installs a relay position computed elsewhere (e.g. the
// window engine's memoized propagation) and derives the dependent caches,
// exactly as reset would from PositionAt. i must be a relay (non-Ground).
func (se *stepEval) refreshRelayAt(i int, p geo.Vec3) {
	se.pos[i] = p
	se.normM[i] = p.Norm()
	se.lla[i] = geo.ToLLA(p)
	se.frameOK[i] = false
}

// relayFrame returns relay i's observation frame at the current instant,
// building it from the cached geodetic position on the first read after a
// refresh. geo.NewFrame is pure, so the frame equals an eager build.
//
//qntn:hotpath at most once per relay per step builds the frame
func (se *stepEval) relayFrame(i int) *geo.Frame {
	if !se.frameOK[i] {
		se.frame[i] = geo.NewFrame(se.lla[i])
		se.frameOK[i] = true
	}
	return &se.frame[i]
}

// Close implements netsim.StepEvaluator, returning the evaluator to its
// scenario's pool.
//
//qntn:hotpath
func (se *stepEval) Close() { se.sc.stepPool.Put(se) }

// EvaluatePair implements netsim.StepEvaluator, gating in
// scenarioModel.Evaluate's order. A pair with a downed endpoint is
// rejected first, so it never reaches the prefilters or their counts.
// Then the physics, which mirror the dispatch of Scenario.evaluateLink
// exactly (order so kind[a] <= kind[b], then switch on the kind pair).
// Then a weather blackout attenuates a ground↔relay link, the only kind
// pair that falls through the switch. On a fault-free scenario nodesDown
// and weather stay zero, so the gate costs one predictable branch per pair
// (two on a ground↔relay pair).
//
//qntn:hotpath every node pair of every step goes through here
func (se *stepEval) EvaluatePair(i, j int) (float64, bool) {
	if se.nodesDown > 0 && (se.down[i] || se.down[j]) {
		return 0, false
	}
	a, b := i, j
	if se.kind[a] > se.kind[b] {
		a, b = b, a
	}
	var eta float64
	var ok bool
	switch {
	case se.kind[a] == netsim.Ground && se.kind[b] == netsim.Ground:
		return se.fiberPair(a, b)
	case se.kind[a] == netsim.Ground && se.kind[b] == netsim.Satellite:
		eta, ok = se.groundRelayPair(a, b, &se.sc.spaceFSO, se.sc.spaceMaxRangeM2)
	case se.kind[a] == netsim.Ground && se.kind[b] == netsim.HAP:
		eta, ok = se.groundRelayPair(a, b, &se.sc.hapFSO, se.sc.hapMaxRangeM2)
	case se.kind[a] == netsim.Satellite && se.kind[b] == netsim.Satellite:
		return se.islPair(a, b)
	case se.kind[a] == netsim.Satellite && se.kind[b] == netsim.HAP:
		return se.satHAPPair(a, b)
	default:
		return 0, false
	}
	if ok && se.weather {
		return se.sc.weatherGate(eta)
	}
	return eta, ok
}

// fiberPair mirrors Scenario.fiberLink on the memoized fiber adjacency: a
// pair outside the lower node's ascending CSR row is not a same-network
// pair, and a pair in it reads the η computed once at assembly from the
// same positions and the same Fiber.Transmissivity.
//
//qntn:hotpath
func (se *stepEval) fiberPair(a, b int) (float64, bool) {
	if a > b {
		a, b = b, a
	}
	for k := se.fiberStart[a]; k < se.fiberStart[a+1] && int(se.fiberList[k]) <= b; k++ {
		if int(se.fiberList[k]) == b {
			eta := se.fiberEta[k]
			if eta < se.sc.Params.TransmissivityThreshold {
				return 0, false
			}
			return eta, true
		}
	}
	return 0, false
}

// groundRelayPair mirrors Scenario.groundSpaceLink on cached geometry, with
// two conservative prefilters ahead of the full evaluation: the horizon
// test (a relay below the host's horizon cannot meet the non-negative
// elevation mask) and the squared-range gate (beyond it the transmissivity
// provably falls below the threshold).
//
//qntn:hotpath
func (se *stepEval) groundRelayPair(a, b int, cfg *channel.FSOConfig, maxRangeM2 float64) (float64, bool) {
	gh := se.ground[a]
	if gh == nil {
		return 0, false
	}
	sc := se.sc
	if sc.Params.RequireDarkness && !se.dark[a] {
		return 0, false
	}
	f := &se.gFrame[a]
	if !f.AboveHorizon(se.pos[b]) {
		se.horizonRejects++
		return 0, false
	}
	look := f.Look(se.pos[b])
	if look.ElevationRad < sc.Params.MinElevationRad {
		return 0, false
	}
	if look.SlantRangeM*look.SlantRangeM > maxRangeM2 {
		se.rangeRejects++
		return 0, false
	}
	eta := cfg.Transmissivity(channel.FSOGeometry{
		RangeM:       look.SlantRangeM,
		ElevationRad: look.ElevationRad,
		LoAltM:       se.gAltM[a],
		HiAltM:       se.lla[b].AltM,
	})
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// islPair mirrors Scenario.interSatelliteLink on cached geometry, with the
// squared-range gate applied before the line-of-sight test (at the paper's
// threshold the gate rejects the large majority of satellite pairs). When
// the scenario restricts ISLs to a grid topology, non-neighbors are
// rejected first.
//
//qntn:hotpath
func (se *stepEval) islPair(a, b int) (float64, bool) {
	sc := se.sc
	if !se.islAllowed(a, b) {
		return 0, false
	}
	pa, pb := se.pos[a], se.pos[b]
	d := pb.Sub(pa)
	if d.Dot(d) > sc.spaceMaxRangeM2 {
		se.rangeRejects++
		return 0, false
	}
	if !geo.LineOfSight(pa, pb, sc.islClearance) {
		return 0, false
	}
	lo, hi := a, b
	if se.normM[lo] > se.normM[hi] {
		lo, hi = hi, lo
	}
	eta := sc.spaceFSO.Transmissivity(channel.FSOGeometry{
		RangeM:       pa.Distance(pb),
		ElevationRad: se.relayFrame(lo).Look(se.pos[hi]).ElevationRad,
		LoAltM:       se.lla[a].AltM,
		HiAltM:       se.lla[b].AltM,
	})
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// satHAPPair mirrors Scenario.satelliteHAPLink on cached geometry, with the
// squared-range gate first.
//
//qntn:hotpath
func (se *stepEval) satHAPPair(a, b int) (float64, bool) {
	sc := se.sc
	ps, ph := se.pos[a], se.pos[b]
	d := ph.Sub(ps)
	if d.Dot(d) > sc.satHAPMaxRangeM2 {
		se.rangeRejects++
		return 0, false
	}
	lo, hi := a, b
	if se.normM[lo] > se.normM[hi] {
		lo, hi = hi, lo
	}
	elev := se.relayFrame(lo).Look(se.pos[hi]).ElevationRad
	if elev < sc.Params.MinElevationRad {
		return 0, false
	}
	if !geo.LineOfSight(ps, ph, sc.islClearance) {
		return 0, false
	}
	eta := sc.satHAPFSO.Transmissivity(channel.FSOGeometry{
		RangeM:       ps.Distance(ph),
		ElevationRad: elev,
		LoAltM:       se.lla[b].AltM,
		HiAltM:       se.lla[a].AltM,
	})
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}
