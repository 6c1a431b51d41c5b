package qntn

import (
	"testing"
	"time"

	"qntn/internal/geo"
)

func TestExtendedNetworks(t *testing.T) {
	nets := ExtendedNetworks()
	if len(nets) != 6 {
		t.Fatalf("%d networks, want 6", len(nets))
	}
	names := map[string]bool{}
	for _, n := range nets {
		names[n.Name] = true
		if len(n.Nodes) == 0 {
			t.Fatalf("%s has no nodes", n.Name)
		}
	}
	for _, want := range []string{NetworkTTU, NetworkEPB, NetworkORNL, "NASH", "MEM", "KNOX"} {
		if !names[want] {
			t.Fatalf("missing network %s", want)
		}
	}
	// Memphis is far west: ≈ 290+ km from Nashville.
	var nash, mem LocalNetwork
	for _, n := range nets {
		switch n.Name {
		case "NASH":
			nash = n
		case "MEM":
			mem = n
		}
	}
	if d := geo.GreatCircleM(nash.Centroid(), mem.Centroid()) / 1000; d < 250 || d > 350 {
		t.Fatalf("Nashville-Memphis separation %g km", d)
	}
}

func TestNewCustomScenarioValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := NewCustomScenario(AirGround, p, nil, nil); err == nil {
		t.Fatal("empty LAN list accepted")
	}
	lans := GroundNetworks()
	dup := append([]LocalNetwork{}, lans...)
	dup[1].Name = dup[0].Name
	if _, err := NewCustomScenario(AirGround, p, dup, nil); err == nil {
		t.Fatal("duplicate LAN name accepted")
	}
	empty := append([]LocalNetwork{}, lans...)
	empty[2].Nodes = nil
	if _, err := NewCustomScenario(AirGround, p, empty, nil); err == nil {
		t.Fatal("empty LAN accepted")
	}
}

func TestNewMultiHAP(t *testing.T) {
	p := DefaultParams()
	positions := []geo.LLA{
		{LatDeg: p.HAPLatDeg, LonDeg: p.HAPLonDeg}, // altitude defaulted
		{LatDeg: 36.0, LonDeg: -86.4, AltM: 25e3},
	}
	sc, err := NewMultiHAP(p, GroundNetworks(), positions)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.RelayIDs) != 2 || sc.RelayIDs[0] != "HAP-1" || sc.RelayIDs[1] != "HAP-2" {
		t.Fatalf("relay IDs %v", sc.RelayIDs)
	}
	// Defaulted altitude applied.
	if alt := geo.ToLLA(sc.Net.Node("HAP-1").PositionAt(0)).AltM; alt < 29e3 || alt > 31e3 {
		t.Fatalf("HAP-1 altitude %g", alt)
	}
	if alt := geo.ToLLA(sc.Net.Node("HAP-2").PositionAt(0)).AltM; alt < 24e3 || alt > 26e3 {
		t.Fatalf("HAP-2 altitude %g", alt)
	}
	if _, err := NewMultiHAP(p, GroundNetworks(), nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestSingleHAPEquivalence(t *testing.T) {
	// A one-platform fleet at the paper position behaves like NewAirGround.
	p := DefaultParams()
	fleet, err := NewMultiHAP(p, GroundNetworks(), []geo.LLA{{LatDeg: p.HAPLatDeg, LonDeg: p.HAPLonDeg}})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := fleet.Graph(0)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := paper.Graph(0)
	if err != nil {
		t.Fatal(err)
	}
	if gf.NumEdges() != gp.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", gf.NumEdges(), gp.NumEdges())
	}
	if !fleet.Bridged(gf) {
		t.Fatal("single-HAP fleet should bridge the paper region")
	}
}

func TestPlaceHAPsPaperRegion(t *testing.T) {
	// One platform suffices for the paper's three cities, and the greedy
	// search must find it.
	p := DefaultParams()
	res, err := PlaceHAPs(p, GroundNetworks(), 3, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 1 {
		t.Fatalf("placed %d HAPs for the paper region, want 1", len(res.Positions))
	}
	if res.ConnectedPairs != res.TotalPairs || res.TotalPairs != 3 {
		t.Fatalf("connectivity %d/%d", res.ConnectedPairs, res.TotalPairs)
	}
	// And the solution actually works as a scenario.
	sc, err := NewMultiHAP(p, GroundNetworks(), res.Positions)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := sc.Coverage(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Percent() != 100 {
		t.Fatalf("optimized placement covers %.2f%%", cov.Percent())
	}
}

func TestPlaceHAPsStatewide(t *testing.T) {
	// The statewide finding: Memphis cannot be joined by any HAP fleet
	// (no platform footprint spans the Nashville-Memphis gap and there is
	// no intermediate LAN), so greedy placement saturates at 10/15 pairs.
	p := DefaultParams()
	res, err := PlaceHAPs(p, ExtendedNetworks(), 6, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairs != 15 {
		t.Fatalf("total pairs %d", res.TotalPairs)
	}
	if res.ConnectedPairs != 10 {
		t.Fatalf("connected pairs %d, want 10 (Memphis isolated)", res.ConnectedPairs)
	}
	if len(res.Positions) > 4 {
		t.Fatalf("greedy used %d platforms", len(res.Positions))
	}
}

func TestPlaceHAPsRejectsBadInput(t *testing.T) {
	p := DefaultParams()
	if _, err := PlaceHAPs(p, GroundNetworks(), 0, 0.2); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := PlaceHAPs(p, GroundNetworks(), 2, 0); err == nil {
		t.Fatal("zero grid step accepted")
	}
	if _, err := PlaceHAPs(p, GroundNetworks()[:1], 2, 0.2); err == nil {
		t.Fatal("single LAN accepted")
	}
}

func TestExtendedSpaceGroundBridgesStatewide(t *testing.T) {
	// Satellites cover the whole state whenever one is up: over a few
	// hours the extended region gets nonzero coverage.
	sc, err := NewExtendedSpaceGround(108, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.LANs) != 6 {
		t.Fatalf("%d LANs", len(sc.LANs))
	}
	cov, err := sc.Coverage(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Percent() <= 0 {
		t.Fatal("statewide space-ground coverage is zero")
	}
}

func TestConnectedPairsHelper(t *testing.T) {
	// Three LANs; one platform serving {0,1}, another {1,2}: chains give
	// all three pairs.
	if got := connectedPairs([]uint64{0b011, 0b110}, 3); got != 3 {
		t.Fatalf("chained pairs %d, want 3", got)
	}
	if got := connectedPairs([]uint64{0b011}, 3); got != 1 {
		t.Fatalf("single link pairs %d, want 1", got)
	}
	if got := connectedPairs(nil, 3); got != 0 {
		t.Fatalf("empty fleet pairs %d", got)
	}
}

// TestTableIIFleetsHonorJ2: every Table II architecture builds its fleet
// through one builder, so Params.UseJ2 moves the satellites of the hybrid
// and statewide scenarios exactly as it moves NewSpaceGround's, and each
// build is one catalog propagation.
func TestTableIIFleetsHonorJ2(t *testing.T) {
	const at = 6 * time.Hour
	twoBody, j2 := DefaultParams(), DefaultParams()
	j2.UseJ2 = true
	ref, err := NewSpaceGround(108, j2)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Net.Node("SAT-001").PositionAt(at)
	calls := installPropagationHook(t)
	for name, build := range map[string]func(Params) (*Scenario, error){
		"space-ground": func(p Params) (*Scenario, error) { return NewSpaceGround(108, p) },
		"hybrid":       func(p Params) (*Scenario, error) { return NewHybrid(108, p) },
		"statewide":    func(p Params) (*Scenario, error) { return NewExtendedSpaceGround(108, p) },
	} {
		*calls = (*calls)[:0]
		plain, err := build(twoBody)
		if err != nil {
			t.Fatal(err)
		}
		perturbed, err := build(j2)
		if err != nil {
			t.Fatal(err)
		}
		got := perturbed.Net.Node("SAT-001").PositionAt(at)
		if got != want {
			t.Errorf("%s: SAT-001 under J2 at %v is %v, NewSpaceGround's is %v", name, at, got, want)
		}
		if d := got.Distance(plain.Net.Node("SAT-001").PositionAt(at)); d < 1000 {
			t.Errorf("%s: J2 moved SAT-001 by %.1f m at %v, want kilometers", name, d, at)
		}
		if len(*calls) != 2 {
			t.Errorf("%s: %d catalog propagations for two builds, want 2", name, len(*calls))
		}
	}
}
