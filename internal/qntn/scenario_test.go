package qntn

import (
	"math"
	"testing"
	"time"

	"qntn/internal/geo"
	"qntn/internal/netsim"
	"qntn/internal/orbit"
)

func TestNewAirGroundTopology(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Arch != AirGround {
		t.Fatal("architecture mismatch")
	}
	if sc.Net.NumNodes() != 32 { // 31 ground + 1 HAP
		t.Fatalf("node count %d, want 32", sc.Net.NumNodes())
	}
	if len(sc.RelayIDs) != 1 || sc.RelayIDs[0] != HAPID {
		t.Fatalf("relay IDs %v", sc.RelayIDs)
	}
	g, err := sc.Graph(0)
	if err != nil {
		t.Fatal(err)
	}
	// Every ground host must have a usable HAP link (the paper's fixed
	// air-ground connectivity).
	for lan, ids := range sc.GroundIDs {
		for _, id := range ids {
			eta, ok := g.Eta(id, HAPID)
			if !ok {
				t.Fatalf("%s host %s has no HAP link", lan, id)
			}
			if eta < 0.7 || eta > 1 {
				t.Fatalf("HAP link eta %g for %s", eta, id)
			}
		}
	}
	if !sc.Bridged(g) {
		t.Fatal("air-ground should be bridged")
	}
}

func TestHAPElevationAboveMask(t *testing.T) {
	// The paper's HAP position must clear the π/9 elevation mask from all
	// three cities — otherwise the architecture could not serve 100%.
	p := DefaultParams()
	hap := geo.LLA{LatDeg: p.HAPLatDeg, LonDeg: p.HAPLonDeg, AltM: p.HAPAltM}
	for _, lan := range GroundNetworks() {
		for i, node := range lan.Nodes {
			el := geo.Look(node, hap.ECEF()).ElevationRad
			if el < p.MinElevationRad {
				t.Errorf("%s node %d sees HAP at %.1f°, below the mask", lan.Name, i, geo.Deg(el))
			}
		}
	}
}

func TestNewSpaceGroundTopology(t *testing.T) {
	sc, err := NewSpaceGround(12, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Net.NumNodes() != 43 { // 31 ground + 12 satellites
		t.Fatalf("node count %d, want 43", sc.Net.NumNodes())
	}
	if len(sc.RelayIDs) != 12 || sc.RelayIDs[0] != "SAT-001" {
		t.Fatalf("relay IDs %v", sc.RelayIDs)
	}
	if _, err := NewSpaceGround(7, DefaultParams()); err == nil {
		t.Fatal("invalid satellite count accepted")
	}
}

func TestFiberLinksIntraLANOnly(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Graph(0)
	if err != nil {
		t.Fatal(err)
	}
	// Intra-LAN pairs all linked.
	for _, ids := range sc.GroundIDs {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if _, ok := g.Eta(ids[i], ids[j]); !ok {
					t.Fatalf("missing fiber link %s-%s", ids[i], ids[j])
				}
			}
		}
	}
	// Cross-LAN ground pairs never directly linked.
	if _, ok := g.Eta(sc.GroundIDs[NetworkTTU][0], sc.GroundIDs[NetworkEPB][0]); ok {
		t.Fatal("cross-LAN fiber link should not exist")
	}
	if _, ok := g.Eta(sc.GroundIDs[NetworkTTU][0], sc.GroundIDs[NetworkORNL][0]); ok {
		t.Fatal("cross-LAN fiber link should not exist")
	}
}

func TestEvaluateLinkSymmetricAndGuarded(t *testing.T) {
	sc, err := NewSpaceGround(6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ttu := sc.GroundIDs[NetworkTTU][0]
	for _, at := range []time.Duration{0, 15 * time.Minute, 3 * time.Hour} {
		for _, sat := range sc.RelayIDs {
			e1, ok1 := sc.EvaluateLink(ttu, sat, at)
			e2, ok2 := sc.EvaluateLink(sat, ttu, at)
			if ok1 != ok2 || math.Abs(e1-e2) > 1e-15 {
				t.Fatalf("link evaluation not symmetric for %s-%s at %v", ttu, sat, at)
			}
		}
	}
	if _, ok := sc.EvaluateLink("nope", ttu, 0); ok {
		t.Fatal("unknown node should have no link")
	}
	if _, ok := sc.EvaluateLink(ttu, ttu, 0); ok {
		t.Fatal("self link should not exist")
	}
}

func TestSatelliteLinksComeAndGo(t *testing.T) {
	// Over a day, any given satellite should be sometimes usable and
	// mostly not (it spends most of its orbit away from Tennessee).
	sc, err := NewSpaceGround(6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ttu := sc.GroundIDs[NetworkTTU][0]
	sat := sc.RelayIDs[0]
	up, down := 0, 0
	for at := time.Duration(0); at < 24*time.Hour; at += 5 * time.Minute {
		if _, ok := sc.EvaluateLink(ttu, sat, at); ok {
			up++
		} else {
			down++
		}
	}
	if up == 0 {
		t.Fatal("satellite never visible over a day")
	}
	if down == 0 {
		t.Fatal("satellite always visible — gating is broken")
	}
	if up > down {
		t.Fatalf("satellite usable %d/%d sample points — far too permissive", up, up+down)
	}
}

func TestSpaceLinkRespectsElevationMask(t *testing.T) {
	p := DefaultParams()
	sc, err := NewSpaceGround(108, p)
	if err != nil {
		t.Fatal(err)
	}
	host := sc.Net.Node(sc.GroundIDs[NetworkTTU][0]).(*netsim.GroundHost)
	found := false
	for at := time.Duration(0); at < 6*time.Hour; at += time.Minute {
		for _, sat := range sc.relays {
			la := geo.Look(host.LLA(), sat.PositionAt(at))
			_, usable := sc.EvaluateLink(host.ID(), sat.ID(), at)
			if usable {
				found = true
				if la.ElevationRad < p.MinElevationRad {
					t.Fatalf("usable link below elevation mask (%.1f°)", geo.Deg(la.ElevationRad))
				}
			}
		}
	}
	if !found {
		t.Fatal("no usable satellite link found in 6 hours — gating too strict")
	}
}

func TestNewSpaceGroundFromSheetsMatchesDirect(t *testing.T) {
	p := DefaultParams()
	direct, err := NewSpaceGround(6, p)
	if err != nil {
		t.Fatal(err)
	}
	elems, err := orbit.PaperConstellation(6)
	if err != nil {
		t.Fatal(err)
	}
	sheets, err := orbit.GenerateSheets(elems, 2*time.Hour, p.StepInterval)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewSpaceGroundFromSheets(sheets, p)
	if err != nil {
		t.Fatal(err)
	}
	// At exact sample instants, the two scenarios agree on every link.
	ttu := direct.GroundIDs[NetworkTTU][0]
	for at := time.Duration(0); at <= 2*time.Hour-p.StepInterval; at += p.StepInterval {
		for _, sat := range direct.RelayIDs {
			e1, ok1 := direct.EvaluateLink(ttu, sat, at)
			e2, ok2 := replay.EvaluateLink(ttu, sat, at)
			if ok1 != ok2 || math.Abs(e1-e2) > 1e-9 {
				t.Fatalf("sheet replay diverges at %v for %s: (%v,%v) vs (%v,%v)", at, sat, e1, ok1, e2, ok2)
			}
		}
	}
	if _, err := NewSpaceGroundFromSheets(nil, p); err == nil {
		t.Fatal("empty sheet list accepted")
	}
}

func TestNewHybridTopology(t *testing.T) {
	sc, err := NewHybrid(6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Arch != Hybrid {
		t.Fatal("architecture mismatch")
	}
	if sc.Net.NumNodes() != 38 { // 31 ground + HAP + 6 sats
		t.Fatalf("node count %d, want 38", sc.Net.NumNodes())
	}
	g, err := sc.Graph(0)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Bridged(g) {
		t.Fatal("hybrid should inherit the HAP's full bridging")
	}
}

func TestNetworkOf(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sc.NetworkOf("TTU-01") != NetworkTTU {
		t.Fatal("NetworkOf ground host wrong")
	}
	if sc.NetworkOf(HAPID) != "" || sc.NetworkOf("nope") != "" {
		t.Fatal("NetworkOf relay/unknown should be empty")
	}
}

func TestUseJ2ChangesPropagationButNotHeadline(t *testing.T) {
	p := DefaultParams()
	plain, err := NewSpaceGround(108, p)
	if err != nil {
		t.Fatal(err)
	}
	p.UseJ2 = true
	j2, err := NewSpaceGround(108, p)
	if err != nil {
		t.Fatal(err)
	}
	// Positions diverge over hours...
	sat := plain.Net.Node("SAT-001")
	satJ2 := j2.Net.Node("SAT-001")
	if sat.PositionAt(6*time.Hour).Distance(satJ2.PositionAt(6*time.Hour)) < 1e3 {
		t.Fatal("J2 flag had no effect on propagation")
	}
	// ...but the coverage statistic stays close (the design rationale for
	// the two-body default).
	const window = 3 * time.Hour
	covPlain, err := plain.Coverage(window)
	if err != nil {
		t.Fatal(err)
	}
	covJ2, err := j2.Coverage(window)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(covPlain.Percent() - covJ2.Percent()); diff > 10 {
		t.Fatalf("J2 moved coverage by %.2f points", diff)
	}
}
