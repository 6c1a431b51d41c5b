package qntn

import (
	"testing"
	"time"

	"qntn/internal/geo"
	"qntn/internal/netsim"
)

// TestStepEvaluatorsShareNodeTable: two evaluators held at once read the
// scenario's one node table — kinds, fiber transmissivities and ISL rows
// share their backing arrays with it — while each owns its per-step state.
func TestStepEvaluatorsShareNodeTable(t *testing.T) {
	sc, err := NewWalker(walkerTestSpec(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := sc.beginStep(0)
	defer a.Close()
	b := sc.beginStep(time.Minute)
	defer b.Close()
	if a == b {
		t.Fatal("two checkouts returned one evaluator")
	}
	tab := &sc.table
	if len(tab.fiberEta) == 0 || tab.islNbr == nil {
		t.Fatal("degenerate scenario: no fiber pairs or no ISL allowlist")
	}
	sat := len(tab.nodes) - 1
	for _, se := range []*stepEval{a, b} {
		if &se.kind[0] != &tab.kind[0] {
			t.Error("evaluator holds its own kind array")
		}
		if &se.fiberEta[0] != &tab.fiberEta[0] {
			t.Error("evaluator holds its own fiberEta array")
		}
		if &se.islNbr[0] != &tab.islNbr[0] || &se.islNbr[sat][0] != &tab.islNbr[sat][0] {
			t.Error("evaluator holds its own ISL rows")
		}
	}
	if &a.pos[0] == &b.pos[0] || &a.grid.run[0] == &b.grid.run[0] {
		t.Error("evaluators share per-step state")
	}
}

// TestNodeAddedAfterAssemblyPanics: the scenario's per-node state covers
// only the assembled nodes, so a checkout on either topology backend
// refuses a node added to Net later, with lateNodePanic, and the per-pair
// lookups treat it as unknown.
func TestNodeAddedAfterAssemblyPanics(t *testing.T) {
	for _, eventDriven := range []bool{false, true} {
		p := DefaultParams()
		p.EventDriven = eventDriven
		sc, err := NewAirGround(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Net.Add(netsim.NewHAPNode("HAP-late", geo.LLA{LatDeg: 36, LonDeg: -85, AltM: p.HAPAltM})); err != nil {
			t.Fatal(err)
		}
		if _, ok := sc.EvaluateLink("HAP-late", "TTU-01", 0); ok || sc.NetworkOf("HAP-late") != "" {
			t.Fatal("a node added after assembly is known to the per-pair lookups")
		}
		func() {
			defer func() {
				if r := recover(); r != lateNodePanic {
					t.Fatalf("event-driven=%v: recovered %v, want %q", eventDriven, r, lateNodePanic)
				}
			}()
			_, _ = sc.Coverage(time.Hour)
		}()
	}
}
