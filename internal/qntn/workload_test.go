package qntn

import (
	"strings"
	"testing"
)

// mustWorkload builds a workload over a scenario that is known to satisfy
// the two-LAN constraint, failing the test otherwise.
func mustWorkload(t *testing.T, sc *Scenario, seed int64) *Workload {
	t.Helper()
	wl, err := NewWorkload(sc, seed)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	return wl
}

// TestNewWorkloadSingleLAN pins the constructor guard for the degenerate
// scenario shapes Next used to mishandle: with ground hosts from a single
// LAN it spun forever rejecting intra-LAN draws, and with no ground hosts
// at all it panicked in rand.Intn(0). Both must now fail fast with a
// descriptive error.
func TestNewWorkloadSingleLAN(t *testing.T) {
	wl, err := NewWorkload(singleLANScenario(t, 2), 1)
	if err == nil {
		t.Fatal("NewWorkload accepted a single-LAN scenario; Next would loop forever")
	}
	if wl != nil {
		t.Fatal("NewWorkload returned a workload alongside an error")
	}
	if !strings.Contains(err.Error(), "at least two local networks") {
		t.Fatalf("error does not describe the constraint: %v", err)
	}
	if !strings.Contains(err.Error(), "2 host(s) across 1 network(s)") {
		t.Fatalf("error does not report the scenario shape: %v", err)
	}
}

// singleLANScenario assembles a scenario whose only LAN holds the first
// hosts of the paper's first network, with no relays.
func singleLANScenario(t *testing.T, hosts int) *Scenario {
	t.Helper()
	lan := GroundNetworks()[0]
	lan.Nodes = lan.Nodes[:hosts]
	sc, err := assembleWith(AirGround, DefaultParams(), []LocalNetwork{lan}, nil, assembly{})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestNewWorkloadNoGroundHosts covers the empty ground set (the rand.Intn
// panic case), including a scenario that declares LANs but maps no hosts
// to them.
func TestNewWorkloadNoGroundHosts(t *testing.T) {
	for name, sc := range map[string]*Scenario{
		"no LANs":  {},
		"no hosts": {LANs: GroundNetworks(), GroundIDs: map[string][]string{}},
	} {
		if _, err := NewWorkload(sc, 1); err == nil {
			t.Fatalf("%s: NewWorkload accepted a scenario with no ground hosts; Next would panic", name)
		}
	}
}

// TestNewWorkloadPaperScenario checks the paper's three-LAN scenarios still
// construct cleanly after the error-return change.
func TestNewWorkloadPaperScenario(t *testing.T) {
	sc, err := NewAirGround(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWorkload(sc, 9)
	if err != nil {
		t.Fatalf("NewWorkload on the paper scenario: %v", err)
	}
	req := wl.Next()
	if err := wl.Validate(req); err != nil {
		t.Fatalf("first request invalid: %v", err)
	}
}
