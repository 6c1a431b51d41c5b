package qntn

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"qntn/internal/astro"
	"qntn/internal/channel"
	"qntn/internal/fault"
	"qntn/internal/geo"
	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/routing"
)

// Architecture selects between the paper's two interconnection approaches.
type Architecture int

const (
	// SpaceGround uses a LEO constellation (paper §II-B).
	SpaceGround Architecture = iota
	// AirGround uses a single hovering HAP (paper §II-C).
	AirGround
	// Hybrid combines both relay layers — the paper's future-work
	// direction, implemented here as an extension.
	Hybrid
)

// String implements fmt.Stringer.
func (a Architecture) String() string {
	switch a {
	case SpaceGround:
		return "space-ground"
	case AirGround:
		return "air-ground"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// HAPID is the identifier of the air-ground relay node.
const HAPID = "HAP-1"

// Scenario is a fully assembled QNTN instance: a set of local networks
// (the paper's three Table I LANs by default) plus the relay layer of the
// chosen architecture, with the link physics bound to the calibrated
// parameters.
type Scenario struct {
	Arch   Architecture
	Params Params
	Net    *netsim.Network

	// LANs are the local networks.
	LANs []LocalNetwork
	// GroundIDs maps network name to its host IDs in Table I order.
	GroundIDs map[string][]string
	// RelayIDs lists satellite and/or HAP node IDs.
	RelayIDs []string

	// lanHosts holds each LAN's host indices in the network's node order,
	// in LANs order. Ground hosts lead that order, so the indices are the
	// same in every snapshot graph and in every prefix of the relay list.
	lanHosts [][]int

	fiber        channel.Fiber
	spaceFSO     channel.FSOConfig
	hapFSO       channel.FSOConfig
	satHAPFSO    channel.FSOConfig
	relays       []netsim.Node
	islClearance float64
	sun          astro.Sun

	// table is the static per-node state, built once at assembly and
	// shared by the step evaluators, the window scan and the event engine.
	table nodeTable

	// Squared-slant-range prefilter gates derived from the transmissivity
	// threshold (see channel.FSOConfig.MaxUsableRangeM2): beyond the gate
	// a link provably fails the threshold, so the fast path skips the full
	// FSO evaluation.
	spaceMaxRangeM2  float64
	hapMaxRangeM2    float64
	satHAPMaxRangeM2 float64

	// stepPool recycles stepEval instances across topology steps (and
	// across concurrent sweep workers — each worker holds its own).
	stepPool sync.Pool

	// engPool recycles event engines across event-driven runs; the window
	// scan's position-memo slabs dominate a fresh engine's allocations.
	engPool sync.Pool

	// faults is the fault schedule every link evaluation is gated on: nil
	// unless Params.Fault is enabled. See stepEval.EvaluatePair.
	faults *fault.Schedule

	// tel is the scenario-level instrumentation, nil (free) by default.
	// See Instrument.
	tel *scenarioTelemetry
}

// NewSpaceGround assembles the space-ground architecture with the first
// nSats satellites of the paper's Table II slot pattern at the altitude and
// inclination configured in p (the paper's 500 km / 53° by default).
func NewSpaceGround(nSats int, p Params) (*Scenario, error) {
	sats, err := paperFleet(nSats, p)
	if err != nil {
		return nil, err
	}
	return assemble(SpaceGround, p, sats)
}

// paperFleet builds the first nSats satellites of the paper's Table II
// slot pattern at the altitude and inclination configured in p, with the
// J2 perturbation when p.UseJ2 is set: the one fleet builder of every
// Table II architecture and of the ephemeris cache.
func paperFleet(nSats int, p Params) ([]netsim.Node, error) {
	elems, err := orbit.PaperConstellationWith(nSats, p.SatelliteAltitudeM, p.InclinationDeg)
	if err != nil {
		return nil, err
	}
	if propagationHook != nil {
		propagationHook(len(elems))
	}
	sats := make([]netsim.Node, len(elems))
	for i, e := range elems {
		e.ApplyJ2 = p.UseJ2
		sats[i] = netsim.NewSatelliteNode(fmt.Sprintf("SAT-%03d", i+1), e)
	}
	return sats, nil
}

// NewSpaceGroundFromSheets assembles the space-ground architecture from
// recorded movement sheets (the paper's STK import path).
func NewSpaceGroundFromSheets(sheets []*orbit.MovementSheet, p Params) (*Scenario, error) {
	if len(sheets) == 0 {
		return nil, fmt.Errorf("qntn: no movement sheets")
	}
	sats := make([]netsim.Node, len(sheets))
	for i, sh := range sheets {
		sats[i] = netsim.NewSatelliteFromSheet(sh.Name, sh)
	}
	return assemble(SpaceGround, p, sats)
}

// NewAirGround assembles the air-ground architecture with the single HAP of
// the paper's §II-C.
func NewAirGround(p Params) (*Scenario, error) {
	hap := netsim.NewHAPNode(HAPID, geo.LLA{LatDeg: p.HAPLatDeg, LonDeg: p.HAPLonDeg, AltM: p.HAPAltM})
	return assemble(AirGround, p, []netsim.Node{hap})
}

// NewHybrid assembles a scenario containing both the HAP and the first
// nSats Table II satellites — the paper's future-work hybrid architecture.
func NewHybrid(nSats int, p Params) (*Scenario, error) {
	sats, err := paperFleet(nSats, p)
	if err != nil {
		return nil, err
	}
	hap := netsim.NewHAPNode(HAPID, geo.LLA{LatDeg: p.HAPLatDeg, LonDeg: p.HAPLonDeg, AltM: p.HAPAltM})
	return assemble(Hybrid, p, append([]netsim.Node{hap}, sats...))
}

// WalkerSpec configures a multi-shell Walker-Delta scenario — the
// global-scale constellations of the related work (Mantri et al.'s
// backbone, the transatlantic relay study), far beyond the paper's Table II
// catalog.
type WalkerSpec struct {
	// Shells lists the Walker shells, concatenated in order.
	Shells []orbit.WalkerShell
	// ISLGrid, when true, restricts inter-satellite links to the +grid
	// topology: each satellite may link only to its two intra-plane ring
	// neighbors and the same slot of the two adjacent planes of its own
	// shell. When false any satellite pair in range may link (the paper's
	// default).
	ISLGrid bool
	// Ground selects the local networks; nil means the paper's Table I
	// Tennessee networks (see also GlobalGroundNetworks).
	Ground []LocalNetwork
}

// NewWalker assembles a space-ground scenario over a multi-shell Walker
// constellation. Satellite IDs are "SAT-0001"... in shell-concatenated
// plane-major order.
func NewWalker(spec WalkerSpec, p Params) (*Scenario, error) {
	elems, err := orbit.WalkerShells(spec.Shells)
	if err != nil {
		return nil, err
	}
	if propagationHook != nil {
		propagationHook(len(elems))
	}
	sats := make([]netsim.Node, len(elems))
	for i, e := range elems {
		e.ApplyJ2 = p.UseJ2
		sats[i] = netsim.NewSatelliteNode(fmt.Sprintf("SAT-%04d", i+1), e)
	}
	lans := spec.Ground
	if lans == nil {
		lans = GroundNetworks()
	}
	var a assembly
	if spec.ISLGrid {
		a.isl = walkerGridAdjacency(spec.Shells)
	}
	return assembleWith(SpaceGround, p, lans, sats, a)
}

// walkerGridAdjacency builds the symmetric +grid ISL allowlist over the
// concatenated shells, indexed by satellite ordinal: intra-plane ring
// neighbors plus the same slot of the two adjacent planes, no cross-shell
// links. Each row is ascending.
func walkerGridAdjacency(shells []orbit.WalkerShell) [][]int32 {
	var adj [][]int32
	base := 0
	for _, sh := range shells {
		perPlane := sh.TotalSats / sh.Planes
		for p := 0; p < sh.Planes; p++ {
			for s := 0; s < perPlane; s++ {
				i := int32(base + p*perPlane + s)
				var nbrs []int32
				add := func(j int) {
					if int32(j) != i && !slices.Contains(nbrs, int32(j)) {
						nbrs = append(nbrs, int32(j))
					}
				}
				add(base + p*perPlane + (s+1)%perPlane)
				add(base + p*perPlane + (s-1+perPlane)%perPlane)
				add(base + ((p+1)%sh.Planes)*perPlane + s)
				add(base + ((p-1+sh.Planes)%sh.Planes)*perPlane + s)
				slices.Sort(nbrs)
				adj = append(adj, nbrs)
			}
		}
		base += sh.TotalSats
	}
	return adj
}

// NewCustomScenario assembles a scenario over an arbitrary set of local
// networks and relay nodes — the extension point for studies beyond the
// paper's three-LAN region (see ExtendedNetworks and the statewide
// experiment). LAN names must be unique and non-empty.
func NewCustomScenario(arch Architecture, p Params, lans []LocalNetwork, relays []netsim.Node) (*Scenario, error) {
	if len(lans) < 2 {
		return nil, fmt.Errorf("qntn: need at least two local networks, got %d", len(lans))
	}
	seen := make(map[string]bool, len(lans))
	for _, lan := range lans {
		if lan.Name == "" || seen[lan.Name] {
			return nil, fmt.Errorf("qntn: duplicate or empty LAN name %q", lan.Name)
		}
		if len(lan.Nodes) == 0 {
			return nil, fmt.Errorf("qntn: LAN %q has no nodes", lan.Name)
		}
		seen[lan.Name] = true
	}
	return assembleWith(arch, p, lans, relays, assembly{})
}

func assemble(arch Architecture, p Params, relays []netsim.Node) (*Scenario, error) {
	return assembleWith(arch, p, GroundNetworks(), relays, assembly{})
}

// assembly holds the assembly inputs that no Params field carries.
type assembly struct {
	// isl, when non-nil, restricts satellite↔satellite links to an
	// allowlist over the relays: isl[r] lists relay r's allowed partners
	// as ascending relay ordinals (symmetric; relays past the end have no
	// row). nil lets any satellite pair link, the paper's default. See
	// WalkerSpec.ISLGrid.
	isl [][]int32
	// faults, when non-nil, is the fault schedule in place of the one
	// Params.Fault would draw.
	faults *fault.Schedule
}

// assembleWith validates the parameters, assembles the scenario and warms
// its pooled step evaluator (per-step arrays, one priming candidate build),
// so the first snapshot runs at allocation-free steady state.
func assembleWith(arch Architecture, p Params, lans []LocalNetwork, relays []netsim.Node, a assembly) (*Scenario, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sc, err := assembleTrusted(arch, p, lans, relays, a)
	if err != nil {
		return nil, err
	}
	sc.Net.BeginStep(0).Close()
	return sc, nil
}

// assembleTrusted assembles a scenario from already-validated parameters —
// the path EphemerisCache.Scenario takes so a sweep validates once instead
// of once per size. The node table is built last, over the final node set
// and fault schedule.
func assembleTrusted(arch Architecture, p Params, lans []LocalNetwork, relays []netsim.Node, a assembly) (*Scenario, error) {
	sc := &Scenario{
		Arch:         arch,
		Params:       p,
		LANs:         lans,
		GroundIDs:    make(map[string][]string),
		fiber:        p.Fiber(),
		spaceFSO:     p.SpaceDownlinkFSO(),
		hapFSO:       p.HAPDownlinkFSO(),
		islClearance: p.ISLClearanceAltM,
	}
	sc.satHAPFSO = sc.spaceFSO
	sc.satHAPFSO.RxApertureRadiusM = p.HAPApertureRadiusM
	sc.spaceMaxRangeM2 = sc.spaceFSO.MaxUsableRangeM2(p.TransmissivityThreshold)
	sc.hapMaxRangeM2 = sc.hapFSO.MaxUsableRangeM2(p.TransmissivityThreshold)
	sc.satHAPMaxRangeM2 = sc.satHAPFSO.MaxUsableRangeM2(p.TransmissivityThreshold)
	sc.Net = netsim.NewNetwork(scenarioModel{sc})

	sc.lanHosts = make([][]int, len(sc.LANs))
	for li, lan := range sc.LANs {
		for i, pos := range lan.Nodes {
			id := NodeID(lan.Name, i)
			host := netsim.NewGroundHost(id, lan.Name, pos)
			if err := sc.Net.Add(host); err != nil {
				return nil, err
			}
			sc.lanHosts[li] = append(sc.lanHosts[li], sc.Net.NumNodes()-1)
			sc.GroundIDs[lan.Name] = append(sc.GroundIDs[lan.Name], id)
		}
	}
	for _, r := range relays {
		if err := sc.Net.Add(r); err != nil {
			return nil, err
		}
		sc.RelayIDs = append(sc.RelayIDs, r.ID())
		sc.relays = append(sc.relays, r)
	}
	// The fault schedule is sampled per node, so it waits for the final
	// node set. A disabled config builds none, keeping fault-free runs
	// byte-identical to the baseline.
	sc.faults = a.faults
	if sc.faults == nil && p.Fault.Enabled() {
		sched, err := fault.NewSchedule(p.Fault, sc.Net.Nodes())
		if err != nil {
			return nil, err
		}
		sc.faults = sched
	}
	sc.table = newNodeTable(sc, a.isl)
	if p.Telemetry != nil {
		sc.Instrument(p.Telemetry)
	}
	return sc, nil
}

// EvaluateLink exposes the scenario's per-pair reference link model for a
// node pair at time t, fault gate included, exactly as snapshots evaluate
// it. Unknown IDs, and nodes added to Net after assembly, yield no link.
func (sc *Scenario) EvaluateLink(aID, bID string, t time.Duration) (float64, bool) {
	i, okA := sc.Net.IndexOf(aID)
	j, okB := sc.Net.IndexOf(bID)
	if !okA || !okB || i == j || max(i, j) >= len(sc.table.nodes) {
		return 0, false
	}
	return scenarioModel{sc}.Evaluate(sc.table.nodes[i], sc.table.nodes[j], t)
}

// evaluateLink implements the link physics + gating for every node-pair
// combination. It is the netsim.LinkModel of the scenario.
func (sc *Scenario) evaluateLink(a, b netsim.Node, t time.Duration) (float64, bool) {
	// Order so that a.Kind() <= b.Kind() (Ground < Satellite < HAP).
	if a.Kind() > b.Kind() {
		a, b = b, a
	}
	switch {
	case a.Kind() == netsim.Ground && b.Kind() == netsim.Ground:
		return sc.fiberLink(a, b)
	case a.Kind() == netsim.Ground && b.Kind() == netsim.Satellite:
		return sc.groundSpaceLink(a, b, t, sc.spaceFSO)
	case a.Kind() == netsim.Ground && b.Kind() == netsim.HAP:
		return sc.groundSpaceLink(a, b, t, sc.hapFSO)
	case a.Kind() == netsim.Satellite && b.Kind() == netsim.Satellite:
		return sc.interSatelliteLink(a, b, t)
	case a.Kind() == netsim.Satellite && b.Kind() == netsim.HAP:
		return sc.satelliteHAPLink(a, b, t)
	default:
		return 0, false
	}
}

// fiberLink connects ground hosts of the same local network over fiber.
// Hosts in different networks have no direct channel (the paper's LANs are
// fiber-internal; interconnection is the relays' job).
func (sc *Scenario) fiberLink(a, b netsim.Node) (float64, bool) {
	if a.Network() != b.Network() || a.Network() == "" {
		return 0, false
	}
	d := a.PositionAt(0).Distance(b.PositionAt(0))
	eta := sc.fiber.Transmissivity(d)
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// groundSpaceLink gates a ground↔relay FSO link on the elevation mask, the
// darkness constraint (when enabled), and the transmissivity threshold.
// The transmissivity is the downlink value (relay transmits, ground
// receives): in the platform-source distribution model entangled photons
// always travel downward.
func (sc *Scenario) groundSpaceLink(ground, relay netsim.Node, t time.Duration, cfg channel.FSOConfig) (float64, bool) {
	gh, ok := ground.(*netsim.GroundHost)
	if !ok {
		return 0, false
	}
	if sc.Params.RequireDarkness && !sc.sun.IsDark(gh.LLA(), t, sc.Params.twilight()) {
		return 0, false
	}
	relayPos := relay.PositionAt(t)
	look := geo.Look(gh.LLA(), relayPos)
	if look.ElevationRad < sc.Params.MinElevationRad {
		return 0, false
	}
	relayAlt := geo.ToLLA(relayPos).AltM
	eta := cfg.Transmissivity(channel.FSOGeometry{
		RangeM:       look.SlantRangeM,
		ElevationRad: look.ElevationRad,
		LoAltM:       gh.LLA().AltM,
		HiAltM:       relayAlt,
	})
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// interSatelliteLink gates an ISL on geometric line of sight (clearing the
// atmosphere) and the transmissivity threshold; no elevation mask applies
// between spaceborne terminals.
func (sc *Scenario) interSatelliteLink(a, b netsim.Node, t time.Duration) (float64, bool) {
	i, _ := sc.Net.IndexOf(a.ID())
	j, _ := sc.Net.IndexOf(b.ID())
	if !sc.table.islAllowed(i, j) {
		return 0, false
	}
	pa, pb := a.PositionAt(t), b.PositionAt(t)
	if !geo.LineOfSight(pa, pb, sc.islClearance) {
		return 0, false
	}
	// One geodetic conversion per endpoint; the grazing elevation is the
	// look angle from the lower endpoint's local frame to the higher one.
	la, lb := geo.ToLLA(pa), geo.ToLLA(pb)
	loLLA, hiPos := la, pb
	if pa.Norm() > pb.Norm() {
		loLLA, hiPos = lb, pa
	}
	eta := sc.spaceFSO.Transmissivity(channel.FSOGeometry{
		RangeM:       pa.Distance(pb),
		ElevationRad: geo.NewFrame(loLLA).Look(hiPos).ElevationRad,
		LoAltM:       la.AltM,
		HiAltM:       lb.AltM,
	})
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// satelliteHAPLink supports the hybrid architecture: satellite transmits
// with the space terminal, the HAP receives through its small aperture.
func (sc *Scenario) satelliteHAPLink(sat, hap netsim.Node, t time.Duration) (float64, bool) {
	ps, ph := sat.PositionAt(t), hap.PositionAt(t)
	// One geodetic conversion per endpoint, and the elevation mask — the
	// most selective gate — ahead of line of sight and the FSO evaluation.
	sLLA, hLLA := geo.ToLLA(ps), geo.ToLLA(ph)
	loLLA, hiPos := sLLA, ph
	if ps.Norm() > ph.Norm() {
		loLLA, hiPos = hLLA, ps
	}
	elev := geo.NewFrame(loLLA).Look(hiPos).ElevationRad
	if elev < sc.Params.MinElevationRad {
		return 0, false
	}
	if !geo.LineOfSight(ps, ph, sc.islClearance) {
		return 0, false
	}
	eta := sc.satHAPFSO.Transmissivity(channel.FSOGeometry{
		RangeM:       ps.Distance(ph),
		ElevationRad: elev,
		LoAltM:       hLLA.AltM,
		HiAltM:       sLLA.AltM,
	})
	if eta < sc.Params.TransmissivityThreshold {
		return 0, false
	}
	return eta, true
}

// Graph returns the usable-link transmissivity graph at virtual time t, in
// a fresh graph (see GraphInto).
func (sc *Scenario) Graph(t time.Duration) (*routing.Graph, error) {
	g := routing.NewGraph()
	if err := sc.GraphInto(g, t, nil); err != nil {
		return nil, err
	}
	return g, nil
}

// GraphInto stores the usable-link graph at time t into g, reusing its
// storage across calls (see netsim.Network.SnapshotIntoStats), and, when st
// is non-nil, the snapshot's stats into st. It is the one place a scenario
// snapshots its network: on an instrumented scenario every snapshot flushes
// its stats into the per-snapshot counters, whether or not the caller asked
// for them. The steady state of a caller stepping one graph through time
// allocates nothing, instrumented or not.
//
//qntn:hotpath once per topology snapshot
func (sc *Scenario) GraphInto(g *routing.Graph, t time.Duration, st *netsim.SnapshotStats) error {
	var local netsim.SnapshotStats
	if st == nil && sc.tel != nil {
		st = &local
	}
	if err := sc.Net.SnapshotIntoStats(g, t, st); err != nil {
		return err
	}
	if sc.tel != nil {
		sc.tel.observe(st)
	}
	return nil
}

// Routes computes the converged Algorithm 1 routing tables for the topology
// at time t: the paper's routing specification, one fresh graph and n×n
// tables per call. The request drivers do not call it; they route from
// per-source shortest-path trees (routing.SourceTrees), and the serve
// loop's differential suite pins every path they serve DeepEqual to these
// tables' paths.
func (sc *Scenario) Routes(t time.Duration) (*routing.Tables, *routing.Graph, error) {
	g, err := sc.Graph(t)
	if err != nil {
		return nil, nil, err
	}
	return routing.BellmanFord(g, sc.Params.RoutingEpsilon), g, nil
}

// NetworkOf returns the LAN name of a ground host ID ("" for relays and
// unknown IDs).
func (sc *Scenario) NetworkOf(id string) string {
	if l := sc.lanOf(id); l >= 0 {
		return sc.LANs[l].Name
	}
	return ""
}

// lanOf returns the index in LANs of a LAN host's ID, or -1 for relays,
// unknown IDs and nodes added to Net after assembly.
func (sc *Scenario) lanOf(id string) int32 {
	if i, ok := sc.Net.IndexOf(id); ok && i < len(sc.table.lan) {
		return sc.table.lan[i]
	}
	return -1
}
