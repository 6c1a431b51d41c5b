package qntn

import (
	"qntn/internal/fault"
	"qntn/internal/netsim"
	"qntn/internal/routing"
)

// This file implements the event-driven topology backend: the engine
// behind topoStepper (stepper.go) when Params.EventDriven is set, so the
// per-step loop of Coverage and DetailedCoverage and the admission core
// behind every request driver (RunServe, RunServeDES, RunArrivals,
// RunTraffic) run on it unchanged. Instead of rebuilding the topology graph
// from scratch at every step from the precomputed visibility windows of
// windows.go, the engine applies a sorted stream of window open/close,
// platform down/up and weather on/off events as incremental graph deltas
// (AddEdgeByIndex / RemoveEdgeByIndex), and re-evaluates only the pairs
// whose windows are currently open — with the exact stepEval physics, so
// every snapshot is identical to the stepped backend's. Coverage, which
// reads only the bridged answer, skips the graph: its bridged check
// evaluates just the open pairs that could still join two components.

// evKind orders simultaneous events deterministically. After coalescing, no
// entity sees two events at the same step, so the order is a tiebreak for
// replay stability only.
type evKind uint8

const (
	evWeatherOn evKind = iota
	evWeatherOff
	evNodeDown
	evNodeUp
	evPairClose
	evPairOpen
)

// event is one topology transition at a grid step: a pair window opening or
// closing, a platform going down or coming back, or a weather blackout edge.
type event struct {
	step int
	kind evKind
	i    int // node index for down/up
	pair int // pair ordinal for open/close
}

// spanEvents converts half-open time spans into coalesced [on, off) index
// intervals on the grid and emits them through emit. Adjacent or overlapping
// spans that quantize onto touching index intervals are merged first —
// otherwise a down(k) and up(k) pair at the same step would leave the node
// up where the schedule says down.
func spanEvents(grid sampleGrid, spans []fault.Span, emit func(on, off int)) {
	type iv struct{ on, off int }
	var ivs []iv
	for _, sp := range spans {
		on, off := grid.ceilIndex(sp.Start), grid.ceilIndex(sp.End)
		if on >= off || on >= grid.steps {
			continue
		}
		if n := len(ivs); n > 0 && on <= ivs[n-1].off {
			if off > ivs[n-1].off {
				ivs[n-1].off = off
			}
			continue
		}
		ivs = append(ivs, iv{on, off})
	}
	for _, v := range ivs {
		emit(v.on, v.off)
	}
}

// fiberEdge is one static ground↔ground link admitted by the fiber physics.
// present tracks whether it is currently installed in the graph (both
// endpoints up); its transmissivity never changes.
type fiberEdge struct {
	i, j    int
	eta     float64
	present bool
}

// eventEngine replays one scenario run as incremental topology updates.
// Node kinds, the fiber pairs and the fault spans come from the scenario's
// node table, read through the borrowed evaluator.
type eventEngine struct {
	sc   *Scenario
	ws   *windowScan
	se   *stepEval
	grid sampleGrid
	g    *routing.Graph

	// stamp[i] is the grid step node i's evaluator caches were last
	// refreshed at (every node is fresh at step 0 from the initial reset).
	stamp []int

	fiber   []fiberEdge
	fiberOf [][]int // node index -> indices into fiber
	ufDirty bool

	events    []event
	evScratch []event // counting-sort double buffer
	evCounts  []int   // counting-sort bucket offsets, one per grid step
	cursor    int

	active []int  // pair ordinals with open windows
	apos   []int  // pair ordinal -> index in active, -1 when closed
	has    []bool // pair ordinal -> edge currently in the graph

	stepChanges int
	transitions int
	pairEvals   int // evalPair calls since the engine was built

	baseUF *unionFind // fiber-only template, rebuilt when ufDirty
	uf     *unionFind
}

// newEventEngine scans the scenario's windows on the given grid, builds the
// sorted event stream (windows merged with fault outage and weather spans),
// and installs the static fiber topology. Engines come from the scenario's
// pool — Close returns them — so repeated event-driven runs reuse the
// window scan's position-memo slabs and the event buffers.
func (sc *Scenario) newEventEngine(grid sampleGrid) (*eventEngine, error) {
	nodes := sc.table.nodes
	n := len(nodes)
	eng, _ := sc.engPool.Get().(*eventEngine)
	if eng == nil {
		eng = &eventEngine{
			ws:     &windowScan{},
			g:      routing.NewGraph(),
			baseUF: &unionFind{},
			uf:     &unionFind{},
		}
	}
	eng.sc = sc
	eng.grid = grid
	eng.ws.scan(sc, grid)
	eng.stamp = grow(eng.stamp, n)
	clear(eng.stamp)
	eng.fiber = eng.fiber[:0]
	eng.fiberOf = grow(eng.fiberOf, n)
	for i := range eng.fiberOf {
		eng.fiberOf[i] = eng.fiberOf[i][:0]
	}
	eng.events = eng.events[:0]
	eng.cursor = 0
	eng.active = eng.active[:0]
	eng.stepChanges, eng.transitions, eng.pairEvals = 0, 0, 0
	eng.g.Reset()
	for _, nd := range nodes {
		eng.g.AddNode(nd.ID())
	}
	eng.g.ResetEdges()

	// The initial full reset leaves every node's caches fresh at step 0,
	// and its fault bits equal to what step 0's outage and weather events
	// set; from there on the events alone move them.
	eng.se = sc.beginStep(0)

	// Static fiber topology: the node table's same-network pairs that pass
	// the threshold (fiberPair's rule), in the dense loop's (i, j) order,
	// installed up front (the initial topology produces no link
	// transitions, matching the stepped tracker's first observation), then
	// toggled only by down/up events.
	se := eng.se
	for i := 0; i < n; i++ {
		for k := se.fiberStart[i]; k < se.fiberStart[i+1]; k++ {
			j, eta := int(se.fiberList[k]), se.fiberEta[k]
			if eta < sc.Params.TransmissivityThreshold {
				continue
			}
			fi := len(eng.fiber)
			eng.fiber = append(eng.fiber, fiberEdge{i: i, j: j, eta: eta, present: true})
			eng.fiberOf[i] = append(eng.fiberOf[i], fi)
			eng.fiberOf[j] = append(eng.fiberOf[j], fi)
			if err := eng.g.AddEdgeByIndex(i, j, eta); err != nil {
				eng.Close()
				return nil, err
			}
		}
	}
	eng.ufDirty = true

	eng.buildEvents()
	eng.apos = grow(eng.apos, len(eng.ws.pairs))
	for p := range eng.apos {
		eng.apos[p] = -1
	}
	eng.has = grow(eng.has, len(eng.ws.pairs))
	clear(eng.has)
	return eng, nil
}

// Close returns the borrowed evaluator to the scenario's step pool and the
// engine itself to the scenario's engine pool. The engine must not be used
// after Close.
func (eng *eventEngine) Close() {
	if eng.se != nil {
		eng.se.Close()
		eng.se = nil
	}
	eng.sc.engPool.Put(eng)
}

// buildEvents merges the window runs with the fault schedule's outage and
// weather spans into one stream sorted by (step, kind, node, pair).
func (eng *eventEngine) buildEvents() {
	steps := eng.grid.steps
	for p, runs := range eng.ws.runs {
		for _, r := range runs {
			eng.events = append(eng.events, event{step: r.lo, kind: evPairOpen, pair: p})
			if r.hi+1 < steps {
				eng.events = append(eng.events, event{step: r.hi + 1, kind: evPairClose, pair: p})
			}
		}
	}
	if sched := eng.sc.faults; sched != nil {
		for i, spans := range eng.se.spans {
			spanEvents(eng.grid, spans, func(on, off int) {
				eng.events = append(eng.events, event{step: on, kind: evNodeDown, i: i})
				if off < steps {
					eng.events = append(eng.events, event{step: off, kind: evNodeUp, i: i})
				}
			})
		}
		spanEvents(eng.grid, sched.WeatherSpans(), func(on, off int) {
			eng.events = append(eng.events, event{step: on, kind: evWeatherOn})
			if off < steps {
				eng.events = append(eng.events, event{step: off, kind: evWeatherOff})
			}
		})
	}
	eng.sortEvents()
}

// eventLess orders events within one step: kind, then node, then pair.
func eventLess(a, b event) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.pair < b.pair
}

// sortEvents orders the stream by (step, kind, node, pair). The stream is
// tens of thousands of events for a constellation day, so a comparison sort
// is measurable setup overhead; a counting sort on the step followed by
// insertion sorts inside each step's tiny bucket is linear in practice.
func (eng *eventEngine) sortEvents() {
	evs := eng.events
	counts := grow(eng.evCounts, eng.grid.steps)
	clear(counts)
	for _, ev := range evs {
		counts[ev.step]++
	}
	sum := 0
	for s := range counts {
		c := counts[s]
		counts[s] = sum
		sum += c
	}
	out := grow(eng.evScratch, len(evs))
	for _, ev := range evs {
		out[counts[ev.step]] = ev
		counts[ev.step]++
	}
	// counts[s] is now the end of bucket s; its start is the previous end.
	start := 0
	for _, end := range counts {
		bucket := out[start:end]
		start = end
		for i := 1; i < len(bucket); i++ {
			for j := i; j > 0 && eventLess(bucket[j], bucket[j-1]); j-- {
				bucket[j], bucket[j-1] = bucket[j-1], bucket[j]
			}
		}
	}
	eng.events, eng.evScratch, eng.evCounts = out, evs, counts
}

// apply executes one event against the engine state.
func (eng *eventEngine) apply(ev event) {
	switch ev.kind {
	case evWeatherOn:
		eng.se.weather = true
	case evWeatherOff:
		eng.se.weather = false
	case evNodeDown:
		eng.se.setDown(ev.i, true)
		for _, fi := range eng.fiberOf[ev.i] {
			fe := &eng.fiber[fi]
			if fe.present {
				fe.present = false
				eng.g.RemoveEdgeByIndex(fe.i, fe.j)
				eng.stepChanges++
				eng.ufDirty = true
			}
		}
	case evNodeUp:
		eng.se.setDown(ev.i, false)
		for _, fi := range eng.fiberOf[ev.i] {
			fe := &eng.fiber[fi]
			if !fe.present && !eng.se.down[fe.i] && !eng.se.down[fe.j] {
				fe.present = true
				// The indices predate the graph, so re-adding cannot fail.
				_ = eng.g.AddEdgeByIndex(fe.i, fe.j, fe.eta)
				eng.stepChanges++
				eng.ufDirty = true
			}
		}
	case evPairOpen:
		eng.apos[ev.pair] = len(eng.active)
		//qntn:coldpath amortized growth: the pooled engine keeps its capacity
		eng.active = append(eng.active, ev.pair)
	case evPairClose:
		at := eng.apos[ev.pair]
		last := len(eng.active) - 1
		moved := eng.active[last]
		eng.active[at] = moved
		eng.apos[moved] = at
		eng.active = eng.active[:last]
		eng.apos[ev.pair] = -1
		if eng.has[ev.pair] {
			eng.has[ev.pair] = false
			pr := &eng.ws.pairs[ev.pair]
			eng.g.RemoveEdgeByIndex(pr.i, pr.j)
			eng.stepChanges++
		}
	}
}

// ensureFresh refreshes node i's evaluator caches for grid step k: moving
// nodes replay the scan's memoized positions (bit-identical to PositionAt),
// everything else re-derives its per-step bits (darkness).
//
//qntn:hotpath twice per active pair per step, deduplicated by stamp
func (eng *eventEngine) ensureFresh(i, k int) {
	if eng.stamp[i] == k {
		return
	}
	eng.stamp[i] = k
	if eng.ws.slot[i] >= 0 {
		eng.se.refreshRelayAt(i, eng.ws.posAt(i, k))
	} else {
		eng.se.refreshNode(i)
	}
}

// evalPair evaluates one active pair with the stepped evaluator, fault
// gate included: the engine's events keep its down and weather bits at the
// current step.
//
//qntn:hotpath at most once per active pair per step
func (eng *eventEngine) evalPair(i, j int) (float64, bool) {
	eng.pairEvals++
	return eng.se.EvaluatePair(i, j)
}

// advance moves the engine to grid step k (steps must be visited in
// order): the evaluator is rebound to the step's instant and the step's
// window, outage and weather events are applied. Open-window pairs are not
// evaluated: runStep goes on to re-evaluate them all, Coverage's bridged
// check only those it needs.
//
//qntn:hotpath once per grid step
func (eng *eventEngine) advance(k int) {
	eng.stepChanges = 0
	eng.se.setInstant(eng.grid.at(k))
	for eng.cursor < len(eng.events) && eng.events[eng.cursor].step == k {
		eng.apply(eng.events[eng.cursor])
		eng.cursor++
	}
}

// runStep advances the engine to grid step k, then re-evaluates every
// open-window pair and applies the graph delta. After the call eng.g holds
// exactly the snapshot GraphInto would build at at(k).
func (eng *eventEngine) runStep(k int) error {
	eng.advance(k)
	for _, p := range eng.active {
		pr := &eng.ws.pairs[p]
		eng.ensureFresh(pr.i, k)
		eng.ensureFresh(pr.j, k)
		eta, ok := eng.evalPair(pr.i, pr.j)
		if ok {
			if !eng.has[p] {
				eng.has[p] = true
				eng.stepChanges++
			}
			if err := eng.g.AddEdgeByIndex(pr.i, pr.j, eta); err != nil {
				return err
			}
		} else if eng.has[p] {
			eng.has[p] = false
			eng.g.RemoveEdgeByIndex(pr.i, pr.j)
			eng.stepChanges++
		}
	}
	// The first topology is an observation, not a transition — matching
	// the stepped path's LinkTracker, which skips its first snapshot.
	if k > 0 {
		eng.transitions += eng.stepChanges
	}
	return nil
}

// fiberTemplate returns the union-find over the currently installed fiber
// edges, rebuilt only after an outage event changed them.
func (eng *eventEngine) fiberTemplate() *unionFind {
	if eng.ufDirty {
		eng.baseUF.ensure(eng.g.NumNodes())
		for _, fe := range eng.fiber {
			if fe.present {
				eng.baseUF.union(fe.i, fe.j)
			}
		}
		eng.ufDirty = false
	}
	return eng.baseUF
}

// bridged reports whether all LANs share one component at grid step k,
// which advance must have reached. It evaluates pairs on demand, without
// reading or updating eng.g: starting from the fiber-only union-find, it
// walks the open-window pairs (those with a ground endpoint first), skips
// every pair whose endpoints already share a root, evaluates the rest with
// the exact step physics, unions the usable ones, and returns as soon as
// the LANs meet. The answer equals a check over the full snapshot: the
// final partition does not depend on the union order, and a skipped pair
// could only have joined two nodes already joined.
//
//qntn:hotpath once per grid step of Coverage
func (eng *eventEngine) bridged(k int) bool {
	eng.uf.copyFrom(eng.fiberTemplate())
	return lansJoined(eng.uf, eng.sc.lanHosts) || eng.joinOpenPairs(k, true) || eng.joinOpenPairs(k, false)
}

// joinOpenPairs is one pass of the bridged check over the open-window
// pairs with a ground endpoint (ground) or without one (!ground). It
// reports whether the LANs met.
//
//qntn:hotpath twice per grid step of Coverage at most
func (eng *eventEngine) joinOpenPairs(k int, ground bool) bool {
	for _, p := range eng.active {
		pr := &eng.ws.pairs[p]
		if (eng.se.kind[pr.i] == netsim.Ground || eng.se.kind[pr.j] == netsim.Ground) != ground {
			continue
		}
		if eng.uf.find(pr.i) == eng.uf.find(pr.j) {
			continue
		}
		eng.ensureFresh(pr.i, k)
		eng.ensureFresh(pr.j, k)
		if _, ok := eng.evalPair(pr.i, pr.j); !ok {
			continue
		}
		eng.uf.union(pr.i, pr.j)
		if lansJoined(eng.uf, eng.sc.lanHosts) {
			return true
		}
	}
	return false
}
