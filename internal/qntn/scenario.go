package qntn

import (
	"fmt"
	"sort"
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
	groundByID   map[string]*netsim.GroundHost
	relays       []netsim.Node
	islClearance float64
	sun          astro.Sun

	// islAdj, when non-nil, restricts inter-satellite links to an explicit
	// grid topology: each satellite ID maps to its sorted allowed-partner
	// IDs (symmetric). nil means any satellite pair may link — the paper's
	// default. See WalkerSpec.ISLGrid.
	islAdj map[string][]string

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

	// tel is the scenario-level instrumentation, nil (free) by default.
	// See Instrument.
	tel *scenarioTelemetry
}

// NewSpaceGround assembles the space-ground architecture with the first
// nSats satellites of the paper's Table II slot pattern at the altitude and
// inclination configured in p (the paper's 500 km / 53° by default).
func NewSpaceGround(nSats int, p Params) (*Scenario, error) {
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
	return assemble(SpaceGround, p, sats)
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
	elems, err := orbit.PaperConstellationWith(nSats, p.SatelliteAltitudeM, p.InclinationDeg)
	if err != nil {
		return nil, err
	}
	relays := make([]netsim.Node, 0, len(elems)+1)
	relays = append(relays, netsim.NewHAPNode(HAPID, geo.LLA{LatDeg: p.HAPLatDeg, LonDeg: p.HAPLonDeg, AltM: p.HAPAltM}))
	for i, e := range elems {
		e.ApplyJ2 = p.UseJ2
		relays = append(relays, netsim.NewSatelliteNode(fmt.Sprintf("SAT-%03d", i+1), e))
	}
	return assemble(Hybrid, p, relays)
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
	ids := make([]string, len(elems))
	for i, e := range elems {
		e.ApplyJ2 = p.UseJ2
		ids[i] = fmt.Sprintf("SAT-%04d", i+1)
		sats[i] = netsim.NewSatelliteNode(ids[i], e)
	}
	lans := spec.Ground
	if lans == nil {
		lans = GroundNetworks()
	}
	sc, err := assembleWith(SpaceGround, p, lans, sats)
	if err != nil {
		return nil, err
	}
	if spec.ISLGrid {
		sc.islAdj = walkerGridAdjacency(spec.Shells, ids)
	}
	sc.warm()
	return sc, nil
}

// walkerGridAdjacency builds the symmetric +grid ISL allowlist over the
// concatenated shells: intra-plane ring neighbors plus the same slot of the
// two adjacent planes, no cross-shell links. Neighbor lists are sorted by
// node index (= lexicographic for the fixed-width IDs).
func walkerGridAdjacency(shells []orbit.WalkerShell, ids []string) map[string][]string {
	adj := make(map[string][]string, len(ids))
	base := 0
	for _, sh := range shells {
		perPlane := sh.TotalSats / sh.Planes
		for p := 0; p < sh.Planes; p++ {
			for s := 0; s < perPlane; s++ {
				i := base + p*perPlane + s
				var nbrs []int
				add := func(j int) {
					if j == i {
						return
					}
					for _, k := range nbrs {
						if k == j {
							return
						}
					}
					nbrs = append(nbrs, j)
				}
				add(base + p*perPlane + (s+1)%perPlane)
				add(base + p*perPlane + (s-1+perPlane)%perPlane)
				add(base + ((p+1)%sh.Planes)*perPlane + s)
				add(base + ((p-1+sh.Planes)%sh.Planes)*perPlane + s)
				sort.Ints(nbrs)
				out := make([]string, len(nbrs))
				for k, j := range nbrs {
					out[k] = ids[j]
				}
				adj[ids[i]] = out
			}
		}
		base += sh.TotalSats
	}
	return adj
}

// islAllowedID reports whether the grid topology permits an ISL between the
// two satellite IDs. Lists are symmetric, so one side suffices.
func (sc *Scenario) islAllowedID(aID, bID string) bool {
	for _, id := range sc.islAdj[aID] {
		if id == bID {
			return true
		}
	}
	return false
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
	sc, err := assembleWith(arch, p, lans, relays)
	if err != nil {
		return nil, err
	}
	sc.warm()
	return sc, nil
}

func assemble(arch Architecture, p Params, relays []netsim.Node) (*Scenario, error) {
	sc, err := assembleWith(arch, p, GroundNetworks(), relays)
	if err != nil {
		return nil, err
	}
	sc.warm()
	return sc, nil
}

// warm initializes the pooled step evaluator — per-node caches, spatial-grid
// geometry, one priming candidate build — as part of scenario construction,
// so the first snapshot runs at allocation-free steady state. Every public
// constructor calls it as its last step, after any post-assembly topology
// (the Walker ISL allowlist) is in place, since the evaluator's static
// caches are keyed on the node set alone.
func (sc *Scenario) warm() {
	sc.Net.BeginStep(0).Close()
}

func assembleWith(arch Architecture, p Params, lans []LocalNetwork, relays []netsim.Node) (*Scenario, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return assembleTrusted(arch, p, lans, relays)
}

// assembleTrusted assembles a scenario from already-validated parameters —
// the path EphemerisCache.Scenario takes so a sweep validates once instead
// of once per size.
func assembleTrusted(arch Architecture, p Params, lans []LocalNetwork, relays []netsim.Node) (*Scenario, error) {
	sc := &Scenario{
		Arch:         arch,
		Params:       p,
		LANs:         lans,
		GroundIDs:    make(map[string][]string),
		fiber:        p.Fiber(),
		spaceFSO:     p.SpaceDownlinkFSO(),
		hapFSO:       p.HAPDownlinkFSO(),
		groundByID:   make(map[string]*netsim.GroundHost),
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
			sc.groundByID[id] = host
		}
	}
	for _, r := range relays {
		if err := sc.Net.Add(r); err != nil {
			return nil, err
		}
		sc.RelayIDs = append(sc.RelayIDs, r.ID())
		sc.relays = append(sc.relays, r)
	}
	// The fault decorator needs the final node set to precompute per-node
	// schedules, so it wraps the model after assembly. A disabled config
	// installs nothing, keeping fault-free runs byte-identical to the
	// baseline.
	if p.Fault.Enabled() {
		sched, err := fault.NewSchedule(p.Fault, sc.Net.Nodes())
		if err != nil {
			return nil, err
		}
		sc.Net.SetModel(fault.NewModel(scenarioModel{sc}, sched, p.TransmissivityThreshold))
	}
	if p.Telemetry != nil {
		sc.Instrument(p.Telemetry)
	}
	return sc, nil
}

// EvaluateLink exposes the scenario's link model for a node pair at time
// t — through the network's installed model, so fault decoration applies
// here exactly as it does to snapshots. Unknown IDs yield no link.
func (sc *Scenario) EvaluateLink(aID, bID string, t time.Duration) (float64, bool) {
	a, b := sc.Net.Node(aID), sc.Net.Node(bID)
	if a == nil || b == nil || aID == bID {
		return 0, false
	}
	return sc.Net.Model().Evaluate(a, b, t)
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
	if sc.islAdj != nil && !sc.islAllowedID(a.ID(), b.ID()) {
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

// Graph returns the usable-link transmissivity graph at virtual time t.
func (sc *Scenario) Graph(t time.Duration) (*routing.Graph, error) {
	return sc.Net.Snapshot(t)
}

// GraphInto stores the usable-link graph at time t into g, reusing its
// storage across calls (see netsim.Network.SnapshotInto). The steady state
// of a caller stepping one graph through time allocates nothing.
func (sc *Scenario) GraphInto(g *routing.Graph, t time.Duration) error {
	return sc.Net.SnapshotInto(g, t)
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
	if h, ok := sc.groundByID[id]; ok {
		return h.Network()
	}
	return ""
}
