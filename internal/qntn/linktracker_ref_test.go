package qntn

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/routing"
)

// refLinkTracker keeps netsim.LinkTracker's bookkeeping as it was before
// Observe read the snapshot through EachEdge: the current link set is
// built from Nodes, a sorted Neighbors list per node and an Eta lookup per
// link. Observe is otherwise verbatim.
type refLinkTracker struct {
	prev    map[[2]string]float64
	changes []netsim.LinkChange
	flaps   map[[2]string]int
}

func newRefLinkTracker() *refLinkTracker {
	return &refLinkTracker{
		prev:  make(map[[2]string]float64),
		flaps: make(map[[2]string]int),
	}
}

func (lt *refLinkTracker) Observe(t time.Duration, g *routing.Graph) []netsim.LinkChange {
	current := make(map[[2]string]float64)
	for _, a := range g.Nodes() {
		for _, b := range g.Neighbors(a) {
			if a < b {
				eta, _ := g.Eta(a, b)
				current[[2]string{a, b}] = eta
			}
		}
	}
	var batch []netsim.LinkChange
	for key, eta := range current {
		if _, existed := lt.prev[key]; !existed {
			batch = append(batch, netsim.LinkChange{At: t, A: key[0], B: key[1], Up: true, Eta: eta})
		}
	}
	for key := range lt.prev {
		if _, still := current[key]; !still {
			batch = append(batch, netsim.LinkChange{At: t, A: key[0], B: key[1], Up: false})
		}
	}
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].A != batch[j].A {
			return batch[i].A < batch[j].A
		}
		if batch[i].B != batch[j].B {
			return batch[i].B < batch[j].B
		}
		return !batch[i].Up && batch[j].Up
	})
	for _, c := range batch {
		lt.flaps[[2]string{c.A, c.B}]++
	}
	lt.changes = append(lt.changes, batch...)
	lt.prev = current
	return batch
}

// TestLinkTrackerMatchesNeighborsReference108 drives LinkTracker and the
// reference over one SpaceGround-108 hour, with and without faults: every
// batch, the accumulated Changes, the flap counts and the active-link
// count must agree, and DetailedCoverage must count exactly the reference's
// transitions after the initial topology.
func TestLinkTrackerMatchesNeighborsReference108(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{{"clear", DefaultParams()}, {"faults", faultyParams(5)}} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := NewSpaceGround(108, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			const duration = time.Hour
			grid := coverageGrid(sc.Params.TopologyStep(), duration)
			lt, ref := netsim.NewLinkTracker(), newRefLinkTracker()
			g := routing.NewGraph()
			transitions := 0
			for k := 0; k < grid.steps; k++ {
				at := grid.at(k)
				if err := sc.GraphInto(g, at, nil); err != nil {
					t.Fatal(err)
				}
				got, want := lt.Observe(at, g), ref.Observe(at, g)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (t=%v): batch\n got %v\nwant %v", k, at, got, want)
				}
				if k > 0 {
					transitions += len(want)
				}
			}
			if !reflect.DeepEqual(lt.Changes(), ref.changes) {
				t.Fatal("accumulated Changes() differ from the reference")
			}
			for key, n := range ref.flaps {
				if got := lt.FlapCount(key[1], key[0]); got != n {
					t.Fatalf("FlapCount(%s,%s) = %d, reference %d", key[1], key[0], got, n)
				}
			}
			if lt.ActiveLinks() != len(ref.prev) {
				t.Fatalf("ActiveLinks = %d, reference %d", lt.ActiveLinks(), len(ref.prev))
			}
			if transitions == 0 {
				t.Fatal("degenerate run: no link transitions in the hour")
			}
			detail, err := sc.DetailedCoverage(duration)
			if err != nil {
				t.Fatal(err)
			}
			if detail.LinkTransitions != transitions {
				t.Fatalf("DetailedCoverage.LinkTransitions = %d, reference %d", detail.LinkTransitions, transitions)
			}
		})
	}
}

// CompareLinkTransitions runs DetailedCoverage over duration on the
// backend sc.Params selects and returns its LinkTransitions, together with
// the transitions netsim.LinkTracker — the ID-keyed map diff the stepped
// backend counted with before it diffed edge keys — reports over the
// stepped snapshots of the same grid, excluding the initial topology.
func CompareLinkTransitions(sc *Scenario, duration time.Duration) (got, want int, err error) {
	detail, err := sc.DetailedCoverage(duration)
	if err != nil {
		return 0, 0, err
	}
	grid := coverageGrid(sc.Params.TopologyStep(), duration)
	lt := netsim.NewLinkTracker()
	g := routing.NewGraph()
	for k := 0; k < grid.steps; k++ {
		at := grid.at(k)
		if err := sc.GraphInto(g, at, nil); err != nil {
			return 0, 0, err
		}
		if changes := lt.Observe(at, g); k > 0 {
			want += len(changes)
		}
	}
	return detail.LinkTransitions, want, nil
}

// TestSteppedTransitionsAllocFree: once the stepper's graph and key
// buffers have seen a run's instants, a tracked stepped step — snapshot,
// edge keys and their diff — allocates nothing, so extra steps of the
// stepped DetailedCoverage add no allocations. Revisiting earlier instants
// out of order changes the topology between steps, so the diff does work.
func TestSteppedTransitionsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates; AllocsPerRun is meaningless")
	}
	sc, err := NewSpaceGround(108, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	grid := coverageGrid(sc.Params.TopologyStep(), time.Hour)
	ts, err := sc.newTopoStepper(grid, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.close()
	if ts.eng != nil {
		t.Fatal("default params picked the event backend")
	}
	for k := 0; k < grid.steps; k++ {
		if err := ts.step(k); err != nil {
			t.Fatal(err)
		}
	}
	before := ts.transitions
	if before == 0 {
		t.Fatal("degenerate run: no link transitions in the hour")
	}
	k := 0
	if allocs := testing.AllocsPerRun(50, func() {
		k = (k + 7) % grid.steps
		if err := ts.step(1 + k%(grid.steps-1)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a tracked stepped step allocates %.1f times, want 0", allocs)
	}
	if ts.transitions == before {
		t.Fatal("revisited instants counted no transitions")
	}
}
