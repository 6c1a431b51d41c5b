package qntn

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"qntn/internal/geo"
	"qntn/internal/netsim"
	"qntn/internal/quantum/protocol"
)

// gatewayScenario builds two LANs whose relay links all land on one gateway
// host per LAN: the air-ground HAP sees each LAN's first host (the paper's
// TTU-01 and EPB-01 sites), and the LAN's three other hosts sit 2° of
// latitude away, far below the HAP's elevation mask, joined to the gateway
// by low-loss fiber. Every inter-LAN route that starts or ends at a
// non-gateway host therefore passes through a gateway, so a request to a
// gateway is often followed, within the same step, by a request from the
// same source whose path runs through it.
func gatewayScenario(t *testing.T, p Params) *Scenario {
	t.Helper()
	p.FiberAttenuationDBPerKm = 0.005 // 222 km of fiber: η ≈ 0.77
	lan := func(name string, gw geo.LLA, dLatDeg float64) LocalNetwork {
		nodes := []geo.LLA{gw}
		for k := 0; k < 3; k++ {
			nodes = append(nodes, geo.LLA{LatDeg: gw.LatDeg + dLatDeg, LonDeg: gw.LonDeg + 0.001*float64(k)})
		}
		return LocalNetwork{Name: name, Nodes: nodes}
	}
	paper := GroundNetworks()
	lans := []LocalNetwork{lan("NORTH", paper[0].Nodes[0], 2), lan("SOUTH", paper[1].Nodes[0], -2)}
	hap := netsim.NewHAPNode(HAPID, geo.LLA{LatDeg: p.HAPLatDeg, LonDeg: p.HAPLonDeg, AltM: p.HAPAltM})
	sc, err := NewCustomScenario(AirGround, p, lans, []netsim.Node{hap})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Graph(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lans {
		for i, id := range sc.GroundIDs[l.Name] {
			_, toHAP := g.Eta(id, HAPID)
			if toHAP != (i == 0) {
				t.Fatalf("%s: HAP link %v, want one only on the gateway", id, toHAP)
			}
			want := len(l.Nodes) - 1 // the LAN's full fiber mesh
			if toHAP {
				want++
			}
			if n := len(g.Neighbors(id)); n != want {
				t.Fatalf("%s has %d neighbors, want %d", id, n, want)
			}
		}
	}
	return sc
}

// throughEarlierDst counts the served requests whose path passes, as an
// interior node, through the destination of an earlier request from the
// same source in the same step — the case where a per-source tree that
// paused at that destination must resume by relaxing its edges.
func throughEarlierDst(res *ServeResult) int {
	hits := 0
	var at time.Duration = -1
	dsts := map[string][]string{}
	for _, o := range res.Metrics.Outcomes {
		if o.At != at {
			at = o.At
			clear(dsts)
		}
		if o.Served {
			for _, x := range dsts[o.Request.Src] {
				if slices.Contains(o.Path[1:len(o.Path)-1], x) {
					hits++
					break
				}
			}
		}
		dsts[o.Request.Src] = append(dsts[o.Request.Src], o.Request.Dst)
	}
	return hits
}

// TestGatewayRoutesMatchReference pins the serving kernel where the oracle
// archetypes cannot: on the gateway scenario a request's destination is
// regularly interior to a later path from the same source within one step.
// RunServe (protocol off and on) must equal the Algorithm 1 reference, and
// RunArrivals the event-heap reference with its per-update Dijkstra memo,
// on both topology backends.
func TestGatewayRoutesMatchReference(t *testing.T) {
	for _, eventDriven := range []bool{false, true} {
		for _, proto := range []bool{false, true} {
			t.Run(fmt.Sprintf("serve/eventDriven=%v/protocol=%v", eventDriven, proto), func(t *testing.T) {
				p := DefaultParams()
				p.EventDriven = eventDriven
				if proto {
					p.Protocol = protocol.Config{MemoryT2: 20 * time.Millisecond, SwapSuccess: 0.85, PurifyPaths: 3, Seed: 5}
				}
				sc := gatewayScenario(t, p)
				cfg := ServeConfig{RequestsPerStep: 24, Steps: 6, Horizon: time.Hour, Seed: 3}
				want, err := runServeReference(sc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sc.RunServe(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("RunServe diverged from the reference\n got: %+v\nwant: %+v", got, want)
				}
				if hits := throughEarlierDst(want); hits == 0 {
					t.Fatal("no served path ran through an earlier same-source destination; the case is not exercised")
				}
			})
		}
		t.Run(fmt.Sprintf("arrivals/eventDriven=%v", eventDriven), func(t *testing.T) {
			p := DefaultParams()
			p.EventDriven = eventDriven
			sc := gatewayScenario(t, p)
			cfg := ArrivalConfig{RatePerHour: 1200, Horizon: time.Hour, Seed: 5}
			want, err := runArrivalsReference(sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.RunArrivals(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RunArrivals diverged from the reference\n got: %+v\nwant: %+v", got, want)
			}
			if want.Served == 0 {
				t.Fatal("no arrival served")
			}
		})
	}
}
