package qntn

import (
	"math"

	"qntn/internal/fault"
	"qntn/internal/geo"
	"qntn/internal/netsim"
)

// nodeTable is a scenario's static per-node state, built once at assembly
// from the final node set and read by every consumer: each pooled step
// evaluator embeds a copy of its slice headers, and the window scan and the
// event engine read the same arrays. Nothing in it changes after assembly:
// the node set is fixed (a checkout panics on a node added later), ground
// hosts and HAP platforms never move, and the fault schedule is drawn once.
type nodeTable struct {
	nodes []netsim.Node
	kind  []netsim.NodeKind
	lan   []int32 // LAN host: its index in Scenario.LANs; -1 otherwise

	// ground[i] is node i as a ground host (nil otherwise); gFrame[i] is
	// its observation frame and gAltM[i] its geodetic altitude.
	ground []*netsim.GroundHost
	gFrame []geo.Frame
	gAltM  []float64

	// static marks the nodes fixed in ECEF: Ground-kind nodes, whose
	// position the link physics freeze at t = 0, and HAP platforms.
	// staticPos holds their position. movers lists the other nodes in
	// index order and slot maps a node to its ordinal there (-1 if static).
	static    []bool
	staticPos []geo.Vec3
	movers    []int
	slot      []int

	// fiberStart/fiberList are the CSR rows of same-network ground pairs
	// (j > i, each row ascending) and fiberEta[k] is the fiber
	// transmissivity of pair k. Ground hosts never move, so each η is
	// computed once and fiber lookups only read it.
	fiberStart []int32
	fiberList  []int32
	fiberEta   []float64

	// islNbr, when non-nil, restricts satellite↔satellite links to the
	// scenario's ISL allowlist; row i lists node i's allowed partners,
	// ascending and symmetric. nil lets any satellite pair link, the
	// paper's default. See WalkerSpec.ISLGrid.
	islNbr [][]int32

	// groundLead is the length of the leading run of ground hosts, which
	// the per-step grid build leaves out of the buckets (see
	// buildCandidates). lastNonSat is the highest index of a node that is
	// not a satellite (-1 if none): a satellite after it has no grid
	// partner left once its satellite partners come from islNbr.
	groundLead int32
	lastNonSat int32

	// cells is the step grid's geometry and staticCell the cell of each
	// static node (-1 marks a mover, which re-bins per step). cells.dim is
	// zero when the spatial index is off for the scenario: too few nodes,
	// disabled by Params, or an unbounded FSO range.
	cells      cellGeom
	staticCell []int32

	// spans[i] is node i's downtime list in the scenario's fault schedule;
	// nil on a fault-free scenario.
	spans [][]fault.Span
}

// newNodeTable builds the table of an assembled scenario: sc.Net holds the
// final node set, sc.lanHosts its LAN membership and sc.faults the fault
// schedule. isl is the ISL allowlist over the relays (see assembly.isl).
func newNodeTable(sc *Scenario, isl [][]int32) nodeTable {
	nodes := sc.Net.Nodes()
	n := len(nodes)
	t := nodeTable{
		nodes:      nodes,
		kind:       make([]netsim.NodeKind, n),
		lan:        make([]int32, n),
		ground:     make([]*netsim.GroundHost, n),
		gFrame:     make([]geo.Frame, n),
		gAltM:      make([]float64, n),
		static:     make([]bool, n),
		staticPos:  make([]geo.Vec3, n),
		slot:       make([]int, n),
		fiberStart: make([]int32, n+1),
		lastNonSat: -1,
	}
	for i, nd := range nodes {
		t.kind[i] = nd.Kind()
		t.lan[i] = -1
		if gh, ok := nd.(*netsim.GroundHost); ok {
			t.ground[i] = gh
			t.gFrame[i] = geo.NewFrame(gh.LLA())
			t.gAltM[i] = gh.LLA().AltM
		}
		_, hap := nd.(*netsim.HAPNode)
		t.static[i] = t.kind[i] == netsim.Ground || hap
		t.slot[i] = -1
		if t.static[i] {
			t.staticPos[i] = nd.PositionAt(0)
		} else {
			t.slot[i] = len(t.movers)
			t.movers = append(t.movers, i)
		}
		if t.kind[i] != netsim.Satellite {
			t.lastNonSat = int32(i)
		}
	}
	for li, hosts := range sc.lanHosts {
		for _, h := range hosts {
			t.lan[h] = int32(li)
		}
	}
	for t.groundLead < int32(n) && t.kind[t.groundLead] == netsim.Ground {
		t.groundLead++
	}
	for i := 0; i < n; i++ {
		t.fiberStart[i] = int32(len(t.fiberList))
		if t.kind[i] != netsim.Ground || nodes[i].Network() == "" {
			continue
		}
		for j := i + 1; j < n; j++ {
			if t.kind[j] == netsim.Ground && nodes[j].Network() == nodes[i].Network() {
				t.fiberList = append(t.fiberList, int32(j))
				t.fiberEta = append(t.fiberEta, sc.fiber.Transmissivity(t.staticPos[i].Distance(t.staticPos[j])))
			}
		}
	}
	t.fiberStart[n] = int32(len(t.fiberList))
	if isl != nil {
		// Relays follow the LAN hosts, so relay r is node base+r.
		base := n - len(sc.relays)
		t.islNbr = make([][]int32, n)
		for r, row := range isl {
			nbr := make([]int32, len(row))
			for k, j := range row {
				nbr[k] = int32(base) + j
			}
			t.islNbr[base+r] = nbr
		}
	}
	if sc.faults != nil {
		t.spans = make([][]fault.Span, n)
		for i, nd := range nodes {
			t.spans[i] = sc.faults.DownSpans(nd.ID())
		}
	}
	t.configureCells(sc)
	return t
}

// configureCells sets the step grid's geometry and the static nodes' cells
// when the spatial index applies to the scenario.
func (t *nodeTable) configureCells(sc *Scenario) {
	if len(t.nodes) < spatialIndexMinNodes || sc.Params.DisableSpatialIndex {
		return
	}
	// All FSO range bounds must be finite and positive: an infinite bound
	// (threshold ≤ 0 or a degenerate beam) means distance never gates a
	// link and only the dense scan is safe.
	maxGate := sc.spaceMaxRangeM2
	if sc.hapMaxRangeM2 > maxGate {
		maxGate = sc.hapMaxRangeM2
	}
	if sc.satHAPMaxRangeM2 > maxGate {
		maxGate = sc.satHAPMaxRangeM2
	}
	if !(maxGate > 0) || math.IsInf(maxGate, 1) {
		return
	}
	maxNorm := 0.0
	for _, nd := range t.nodes {
		if nm := nd.PositionAt(0).Norm(); nm > maxNorm {
			maxNorm = nm
		}
	}
	t.cells = newCellGeom(math.Sqrt(maxGate), maxNorm)
	t.staticCell = make([]int32, len(t.nodes))
	for i := range t.staticCell {
		t.staticCell[i] = -1
		if t.static[i] {
			t.staticCell[i] = t.cells.cellIndex(t.staticPos[i])
		}
	}
}

// islAllowed reports whether the ISL allowlist lets satellites a and b
// link: always without one, otherwise when b is in a's row. Rows are
// symmetric and a handful of entries long, so a linear scan from a's side
// suffices.
//
//qntn:hotpath
func (t *nodeTable) islAllowed(a, b int) bool {
	if t.islNbr == nil {
		return true
	}
	for _, j := range t.islNbr[a] {
		if int(j) == b {
			return true
		}
	}
	return false
}
