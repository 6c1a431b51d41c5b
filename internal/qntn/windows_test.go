package qntn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qntn/internal/fault"
	"qntn/internal/geo"
	"qntn/internal/netsim"
)

// This file white-box tests the visibility-window machinery of windows.go:
// property-based endpoint refinement over randomized constellations, the
// grid and span boundary tables, and window clipping at the scenario
// bounds. The engine-level delta regression and the shared step-grid
// regression live in eventloop_test.go; the black-box differential oracle
// lives in oracle_equiv_test.go.

// assertCrossing checks that a refined window endpoint brackets a candidate
// predicate sign change: for a rising (window-start) endpoint the predicate
// holds at e and fails at the last grid instant before it; falling
// (window-end) endpoints mirror that. An independent nanosecond-resolution
// bisection then relocates the crossing from the same bracket, and e must
// lie within windowRefineTol of it.
func assertCrossing(t *testing.T, ws *windowScan, p int, e time.Duration, rising bool) {
	t.Helper()
	g := ws.grid
	kp := int((e - 1) / g.gap) // largest grid index with at(kp) < e
	lo := g.at(kp)
	if ws.candAt(p, e) != rising {
		t.Fatalf("pair %d endpoint %v (rising=%v): predicate %v at the endpoint", p, e, rising, !rising)
	}
	if ws.candAt(p, lo) == rising {
		t.Fatalf("pair %d endpoint %v (rising=%v): no sign change against grid instant %v", p, e, rising, lo)
	}
	rlo, rhi := lo, e
	for rhi-rlo > 1 {
		mid := rlo + (rhi-rlo)/2
		if ws.candAt(p, mid) == rising {
			rhi = mid
		} else {
			rlo = mid
		}
	}
	if d := e - rhi; d < 0 || d > windowRefineTol+time.Microsecond {
		t.Fatalf("pair %d endpoint %v (rising=%v): crossing refined to %v, %v away (tolerance %v)",
			p, e, rising, rhi, d, windowRefineTol)
	}
}

// checkWindowInvariants asserts the refined windows of one pair are sorted,
// non-overlapping, within [0, duration], and that every non-clipped
// endpoint brackets a predicate sign change within the refinement
// tolerance.
func checkWindowInvariants(t *testing.T, ws *windowScan, p int, wins []Window, duration time.Duration) {
	t.Helper()
	prevEnd := time.Duration(-1)
	for _, w := range wins {
		if w.Start < 0 || w.End > duration || w.Start > w.End {
			t.Fatalf("pair %d: window %+v outside [0, %v] or inverted", p, w, duration)
		}
		if w.Start <= prevEnd {
			t.Fatalf("pair %d: windows unsorted or overlapping at %+v (previous end %v)", p, w, prevEnd)
		}
		prevEnd = w.End
		if w.ClippedStart {
			if w.Start != 0 {
				t.Fatalf("pair %d: clipped start at %v, want 0", p, w.Start)
			}
			if !ws.candAt(p, 0) {
				t.Fatalf("pair %d: clipped start but predicate false at t=0", p)
			}
		} else {
			assertCrossing(t, ws, p, w.Start, true)
		}
		if w.ClippedEnd {
			if w.End != duration {
				t.Fatalf("pair %d: clipped end at %v, want %v", p, w.End, duration)
			}
			if last := ws.grid.at(ws.grid.steps - 1); !ws.candAt(p, last) {
				t.Fatalf("pair %d: clipped end but predicate false at the last grid instant %v", p, last)
			}
		} else {
			assertCrossing(t, ws, p, w.End, false)
		}
	}
}

// TestVisibilityWindowProperties is the property-based refinement test:
// random constellation sizes, altitudes, inclinations and step intervals
// (J2 on half the seeds, forcing the dense pairwise scan instead of the
// analytic arcs), and for every pair's every refined window endpoint a
// bracketed predicate sign change within the refinement tolerance.
func TestVisibilityWindowProperties(t *testing.T) {
	grandTotal := 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := DefaultParams()
		p.Turbulence = nil
		p.SatelliteAltitudeM = 400e3 + rng.Float64()*800e3
		p.InclinationDeg = 30 + rng.Float64()*60
		p.StepInterval = time.Duration(10+rng.Intn(111)) * time.Second
		p.UseJ2 = seed%2 == 1
		n := 6 * (1 + rng.Intn(4))
		duration := time.Duration(2+rng.Intn(5)) * time.Hour
		sc, err := NewSpaceGround(n, p)
		if err != nil {
			t.Fatal(err)
		}
		ws := sc.scanWindows(sc.Net.Nodes(), coverageGrid(p.StepInterval, duration))
		total := 0
		for pi := range ws.pairs {
			wins := ws.refinePair(pi, duration)
			checkWindowInvariants(t, ws, pi, wins, duration)
			total += len(wins)
		}
		t.Logf("seed=%d: %d satellites, %v, %d pairs, %d windows", seed, n, duration, len(ws.pairs), total)
		grandTotal += total
	}
	// Sparse draws (a six-satellite ring at an unlucky altitude) can
	// legitimately produce no windows; the ensemble cannot.
	if grandTotal == 0 {
		t.Fatal("no refined windows across any seed — the property test never exercised refinement")
	}
}

// TestVisibilityWindowsExported pins the exported API's ordering contract:
// pairs sorted by ID, windows sorted and in bounds.
func TestVisibilityWindowsExported(t *testing.T) {
	p := DefaultParams()
	p.Turbulence = nil
	sc, err := NewSpaceGround(6, p)
	if err != nil {
		t.Fatal(err)
	}
	duration := 4 * time.Hour
	pws, err := sc.VisibilityWindows(duration)
	if err != nil {
		t.Fatal(err)
	}
	if len(pws) == 0 {
		t.Fatal("no pair windows")
	}
	for i, pw := range pws {
		if i > 0 {
			prev := pws[i-1]
			if prev.A > pw.A || (prev.A == pw.A && prev.B >= pw.B) {
				t.Fatalf("pair listing unsorted: %s-%s after %s-%s", pw.A, pw.B, prev.A, prev.B)
			}
		}
		prevEnd := time.Duration(-1)
		for _, w := range pw.Windows {
			if w.Start < 0 || w.End > duration || w.Start <= prevEnd {
				t.Fatalf("pair %s-%s: window %+v out of bounds or unsorted", pw.A, pw.B, w)
			}
			prevEnd = w.End
		}
	}
	if _, err := sc.VisibilityWindows(0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

// TestCoverageGridBoundaries pins the shared loop-bound definition both
// execution paths derive their coverage grids from.
func TestCoverageGridBoundaries(t *testing.T) {
	step := 30 * time.Second
	cases := []struct {
		duration time.Duration
		steps    int
	}{
		{0, 0},
		{step - 1, 0},        // shorter than one step: no samples
		{step, 1},            // exactly one step
		{step + 1, 1},        // a fraction past one step
		{2*step + step/2, 2}, // mid-step remainder is dropped
		{10 * step, 10},      // exact multiple
		{10*step - 1, 9},     // one short of the multiple
	}
	for _, c := range cases {
		g := coverageGrid(step, c.duration)
		if g.steps != c.steps {
			t.Errorf("coverageGrid(%v, %v).steps = %d, want %d", step, c.duration, g.steps, c.steps)
		}
		if g.steps > 0 && g.at(g.steps-1)+step > c.duration {
			t.Errorf("coverageGrid(%v, %v): last step at %v overruns the duration", step, c.duration, g.at(g.steps-1))
		}
	}
}

// TestCeilIndexBoundaries pins the span→index rounding, in particular the
// exact-sample-instant cases the fault events rely on.
func TestCeilIndexBoundaries(t *testing.T) {
	g := sampleGrid{gap: 30 * time.Second, steps: 10}
	cases := []struct {
		t time.Duration
		k int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Nanosecond, 1},
		{30*time.Second - 1, 1},
		{30 * time.Second, 1}, // exactly on a sample instant: that instant
		{30*time.Second + 1, 2},
		{270 * time.Second, 9},
		{271 * time.Second, 10}, // past the last instant: clamped to steps
		{time.Hour, 10},
	}
	for _, c := range cases {
		if k := g.ceilIndex(c.t); k != c.k {
			t.Errorf("ceilIndex(%v) = %d, want %d", c.t, k, c.k)
		}
	}
}

// TestSpanEventsBoundaries pins the span→event conversion edge cases:
// zero-length spans vanish, spans ending exactly on a sample instant free
// the node at that instant, touching quantized spans coalesce into one
// interval, and spans beyond the grid are dropped.
func TestSpanEventsBoundaries(t *testing.T) {
	g := sampleGrid{gap: 30 * time.Second, steps: 10}
	collect := func(spans []fault.Span) [][2]int {
		var out [][2]int
		spanEvents(g, spans, func(on, off int) { out = append(out, [2]int{on, off}) })
		return out
	}
	sec := time.Second
	cases := []struct {
		name  string
		spans []fault.Span
		want  [][2]int
	}{
		{"zero-length", []fault.Span{{Start: 45 * sec, End: 45 * sec}}, nil},
		{"sub-gap interior", []fault.Span{{Start: 31 * sec, End: 59 * sec}}, nil}, // quantizes to an empty index interval
		{"exact instants", []fault.Span{{Start: 30 * sec, End: 90 * sec}}, [][2]int{{1, 3}}},
		{"clip at start", []fault.Span{{Start: -10 * sec, End: 60 * sec}}, [][2]int{{0, 2}}},
		{"open past end", []fault.Span{{Start: 240 * sec, End: time.Hour}}, [][2]int{{8, 10}}},
		{"fully past end", []fault.Span{{Start: 400 * sec, End: time.Hour}}, nil},
		{"touching spans coalesce", []fault.Span{{Start: 0, End: 60 * sec}, {Start: 60 * sec, End: 120 * sec}}, [][2]int{{0, 4}}},
		{"gapped spans stay apart", []fault.Span{{Start: 0, End: 30 * sec}, {Start: 91 * sec, End: 150 * sec}}, [][2]int{{0, 1}, {4, 5}}},
	}
	for _, c := range cases {
		got := collect(c.spans)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: interval %d = %v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

// TestRefinePairRunBoundaries tampers with a real scan's runs to pin two
// refinement edge cases: a padding-only run (no candidate-true grid index)
// must produce no window, and extending a run with padding indices —
// provably candidate-false by the conservative-superset property — must
// leave the refined windows identical.
func TestRefinePairRunBoundaries(t *testing.T) {
	p := DefaultParams()
	p.Turbulence = nil
	sc, err := NewSpaceGround(24, p)
	if err != nil {
		t.Fatal(err)
	}
	duration := 6 * time.Hour
	ws := sc.scanWindows(sc.Net.Nodes(), coverageGrid(p.StepInterval, duration))

	// Find a pair with an interior run: one that starts late enough to have
	// a guaranteed candidate-false region before it (indices outside every
	// run are provably candidate-false) and ends before the grid does.
	pi := -1
	var run idxRun
	for cand := range ws.pairs {
		for _, r := range ws.runs[cand] {
			if r.lo >= 2 && r.hi <= ws.grid.steps-3 {
				pi, run = cand, r
				break
			}
		}
		if pi >= 0 {
			break
		}
	}
	if pi < 0 {
		t.Fatal("no pair with an interior run found")
	}

	savedRuns := ws.runs[pi]
	defer func() { ws.runs[pi] = savedRuns }()

	want := ws.refinePair(pi, duration)

	// A padding-only run over candidate-false indices refines to nothing.
	ws.runs[pi] = []idxRun{{run.lo - 2, run.lo - 2}}
	if wins := ws.refinePair(pi, duration); len(wins) != 0 {
		t.Fatalf("padding-only run produced windows: %+v", wins)
	}

	// Padding the real runs by one provably-false index on each side (run
	// gaps are at least two indices wide, so the padded index belongs to no
	// neighboring run) must refine to the identical windows.
	padded := make([]idxRun, len(savedRuns))
	for ri, r := range savedRuns {
		if r.lo > 0 {
			r.lo--
		}
		if r.hi < ws.grid.steps-1 {
			r.hi++
		}
		padded[ri] = r
	}
	ws.runs[pi] = padded
	got := ws.refinePair(pi, duration)
	if len(got) != len(want) {
		t.Fatalf("padding changed the window count: %d != %d", len(got), len(want))
	}
	for wi := range got {
		if got[wi] != want[wi] {
			t.Fatalf("padding changed window %d: %+v != %+v", wi, got[wi], want[wi])
		}
	}
}

// linearNode is a test relay moving on a straight line at constant speed —
// exact single-crossing geometry for the boundary tests below. It exposes
// no orbital elements, so the scan has no speed bound and must fall back to
// the dense pairwise walk.
type linearNode struct {
	id  string
	pos geo.Vec3
	vel geo.Vec3 // meters per second along each axis
}

func (n *linearNode) ID() string            { return n.id }
func (n *linearNode) Kind() netsim.NodeKind { return netsim.Satellite }
func (n *linearNode) Network() string       { return "" }
func (n *linearNode) PositionAt(t time.Duration) geo.Vec3 {
	return n.pos.Add(n.vel.Scale(t.Seconds()))
}

// TestSingleInstantWindow pins two window boundary cases with controlled
// flyby geometry: a pass so fast that only one grid instant lies in range
// (a zero-length window at grid resolution) must still refine to a valid
// bracketing window, and a pass entering range exactly on a sample instant
// must open within the refinement tolerance of it.
func TestSingleInstantWindow(t *testing.T) {
	p := DefaultParams()
	p.Turbulence = nil
	gap := p.StepInterval
	duration := 20 * gap

	// The usable FSO range for satellite pairs, read off a probe scenario
	// built from the same parameters.
	probe, err := NewSpaceGround(6, p)
	if err != nil {
		t.Fatal(err)
	}
	rangeM := math.Sqrt(probe.spaceMaxRangeM2)

	anchor := geo.Vec3{X: geo.EarthRadiusM + 500e3}
	const k = 7 // the grid instant the flyby centers on
	build := func(d0, v float64) *windowScan {
		// The flyby node approaches the anchor along x: distance |d0 - v·t|.
		a := &linearNode{id: "ANCHOR", pos: anchor}
		b := &linearNode{
			id:  "FLYBY",
			pos: anchor.Add(geo.Vec3{X: d0}),
			vel: geo.Vec3{X: -v},
		}
		sc, err := assemble(SpaceGround, p, []netsim.Node{a, b})
		if err != nil {
			t.Fatal(err)
		}
		return sc.scanWindows(sc.Net.Nodes(), coverageGrid(gap, duration))
	}
	findPair := func(ws *windowScan) int {
		for pi, pr := range ws.pairs {
			if !pr.horizon && ws.nodes[pr.i].Kind() == netsim.Satellite && ws.nodes[pr.j].Kind() == netsim.Satellite {
				return pi
			}
		}
		t.Fatal("no satellite pair windowed")
		return -1
	}

	// Closest approach at t = k·gap, in range for gap/2 around it: exactly
	// one grid instant in range.
	v := 4 * rangeM / gap.Seconds()
	ws := build(v*float64(k)*gap.Seconds(), v)
	pi := findPair(ws)
	wins := ws.refinePair(pi, duration)
	if len(wins) != 1 {
		t.Fatalf("single-instant flyby produced %d windows, want 1", len(wins))
	}
	w := wins[0]
	if at := ws.grid.at(k); w.Start > at || w.End < at {
		t.Fatalf("window %+v does not bracket the in-range instant %v", w, at)
	}
	if w.End-w.Start >= gap {
		t.Fatalf("single-instant window spans %v, want under one step %v", w.End-w.Start, gap)
	}
	checkWindowInvariants(t, ws, pi, wins, duration)

	// Entry crossing exactly on the sample instant k·gap (the candidate
	// gate's padding keeps the predicate true there despite rounding).
	ws = build(rangeM+v*float64(k)*gap.Seconds(), v)
	pi = findPair(ws)
	wins = ws.refinePair(pi, duration)
	if len(wins) != 1 {
		t.Fatalf("on-instant flyby produced %d windows, want 1", len(wins))
	}
	w = wins[0]
	at := ws.grid.at(k)
	if w.Start > at || at-w.Start > gap/100 {
		t.Fatalf("window opening %v not within %v below the on-instant crossing %v", w.Start, gap/100, at)
	}
	checkWindowInvariants(t, ws, pi, wins, duration)
}

// TestWindowClippingAtScenarioBounds: with a one-step grid every window is
// clipped on both sides and spans exactly [0, duration].
func TestWindowClippingAtScenarioBounds(t *testing.T) {
	p := DefaultParams()
	p.Turbulence = nil
	// 24 satellites: dense enough that some ISL pairs are in range at t=0
	// (the 6-satellite ring's in-plane neighbors are too far apart).
	sc, err := NewSpaceGround(24, p)
	if err != nil {
		t.Fatal(err)
	}
	duration := p.StepInterval // exactly one grid step
	ws := sc.scanWindows(sc.Net.Nodes(), coverageGrid(p.StepInterval, duration))
	if ws.grid.steps != 1 {
		t.Fatalf("grid has %d steps, want 1", ws.grid.steps)
	}
	total := 0
	for pi := range ws.pairs {
		for _, w := range ws.refinePair(pi, duration) {
			total++
			if !w.ClippedStart || !w.ClippedEnd || w.Start != 0 || w.End != duration {
				t.Fatalf("pair %d: one-step window %+v, want clipped [0, %v]", pi, w, duration)
			}
		}
	}
	if total == 0 {
		t.Fatal("no windows on the one-step grid (expected at least the ISL pairs in range at t=0)")
	}
}

// TestMoverSweepMatchesDenseWindows forces the coarse mover-pair sweep on
// at a small constellation (by lowering its mover-count floor) and requires
// the resulting window sets — down to refined endpoint times — to be
// DeepEqual to a dense scan with the sweep and index disabled. The sweep
// may only skip pairs that provably never enter range, so window sets must
// be identical. The single-shell scenarios enable J2 so their satellite
// pairs take the pairwise walk and the walk gate lets the sweep run; every
// case asserts that it did.
func TestMoverSweepMatchesDenseWindows(t *testing.T) {
	defer func(old int) { moverSweepMinMovers = old }(moverSweepMinMovers)
	moverSweepMinMovers = 2

	builders := map[string]func(p Params) (*Scenario, error){
		"space-ground-24": func(p Params) (*Scenario, error) {
			p.UseJ2 = true
			return NewSpaceGround(24, p)
		},
		"hybrid-12": func(p Params) (*Scenario, error) {
			p.UseJ2 = true
			return NewHybrid(12, p)
		},
		"walker-96-global": func(p Params) (*Scenario, error) {
			return NewWalker(walkerTestSpec(), p)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			p := DefaultParams()
			swept, err := build(p)
			if err != nil {
				t.Fatal(err)
			}
			pd := p
			pd.DisableSpatialIndex = true
			dense, err := build(pd)
			if err != nil {
				t.Fatal(err)
			}
			duration := 3 * time.Hour
			ws := swept.scanWindows(swept.Net.Nodes(), coverageGrid(p.TopologyStep(), duration))
			if len(ws.pairMark) == 0 {
				t.Fatal("the mover-pair sweep did not run")
			}
			got, err := swept.VisibilityWindows(duration)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dense.VisibilityWindows(duration)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("swept window set diverged from dense scan\n got %d pairs\nwant %d pairs", len(got), len(want))
			}
			if len(want) == 0 {
				t.Fatal("degenerate sweep run: no pair windows")
			}
		})
	}
}

// drifterHAP is a test HAP that moves: a linearNode reporting the HAP kind,
// so its pairs with satellites take the pairwise walk.
type drifterHAP struct{ linearNode }

func (n *drifterHAP) Kind() netsim.NodeKind { return netsim.HAP }

// TestMoverSweepGate pins the walk gate in front of the mover-pair sweep.
// The sweep is skipped exactly when no mover pair takes the pairwise walk
// (one circular two-body shell: SpaceGround-108, a one-shell Walker) and
// runs otherwise (two shells, J2, a mover without elements, a moving HAP
// beside satellites). Either way the candidate pairs, their runs and the
// refined windows equal those of a scan with the sweep forced on and of a
// dense scan — on the full SpaceGround-108 day included.
func TestMoverSweepGate(t *testing.T) {
	paperSats := func(n int, p Params) []netsim.Node {
		sc, err := NewSpaceGround(n, p)
		if err != nil {
			t.Fatal(err)
		}
		var sats []netsim.Node
		for _, nd := range sc.Net.Nodes() {
			if nd.Kind() == netsim.Satellite {
				sats = append(sats, nd)
			}
		}
		return sats
	}
	oneShell := WalkerSpec{
		Shells:  walkerTestSpec().Shells[:1],
		ISLGrid: true,
		Ground:  GlobalGroundNetworks(),
	}
	anchor := geo.Vec3{X: geo.EarthRadiusM + 20e3}
	cases := []struct {
		name     string
		build    func(p Params) (*Scenario, error)
		duration time.Duration
		walks    bool
	}{
		{"space-ground-108-day", func(p Params) (*Scenario, error) { return NewSpaceGround(108, p) }, 24 * time.Hour, false},
		{"walker-48-one-shell", func(p Params) (*Scenario, error) { return NewWalker(oneShell, p) }, 3 * time.Hour, false},
		{"walker-96-two-shells", func(p Params) (*Scenario, error) { return NewWalker(walkerTestSpec(), p) }, 3 * time.Hour, true},
		{"space-ground-24-j2", func(p Params) (*Scenario, error) {
			p.UseJ2 = true
			return NewSpaceGround(24, p)
		}, 3 * time.Hour, true},
		{"space-ground-24-wild", func(p Params) (*Scenario, error) {
			relays := append(paperSats(24, p), &linearNode{id: "WILD", pos: anchor, vel: geo.Vec3{Y: 100}})
			return assemble(SpaceGround, p, relays)
		}, 3 * time.Hour, true},
		{"space-ground-24-moving-hap", func(p Params) (*Scenario, error) {
			relays := append(paperSats(24, p), &drifterHAP{linearNode{id: "DRIFT", pos: anchor, vel: geo.Vec3{Y: 10}}})
			return assemble(SpaceGround, p, relays)
		}, 3 * time.Hour, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			sc, err := tc.build(p)
			if err != nil {
				t.Fatal(err)
			}
			pd := p
			pd.DisableSpatialIndex = true
			dense, err := tc.build(pd)
			if err != nil {
				t.Fatal(err)
			}
			grid := coverageGrid(p.TopologyStep(), tc.duration)
			scan := func(s *Scenario, force bool) *windowScan {
				defer func(old bool) { moverSweepForce = old }(moverSweepForce)
				moverSweepForce = force
				return s.scanWindows(s.Net.Nodes(), grid)
			}
			gated, forced, dn := scan(sc, false), scan(sc, true), scan(dense, false)
			if got := gated.moverPairWalks(); got != tc.walks {
				t.Fatalf("moverPairWalks = %v, want %v", got, tc.walks)
			}
			if ran := len(gated.pairMark) > 0; ran != tc.walks {
				t.Fatalf("gated scan ran the sweep: %v, want %v", ran, tc.walks)
			}
			if len(forced.pairMark) == 0 {
				t.Fatal("forced scan did not run the sweep")
			}
			if len(dn.pairMark) != 0 {
				t.Fatal("dense scan ran the sweep")
			}
			if len(gated.pairs) == 0 {
				t.Fatal("degenerate scan: no candidate pairs")
			}
			for name, other := range map[string]*windowScan{"forced": forced, "dense": dn} {
				if !reflect.DeepEqual(gated.pairs, other.pairs) {
					t.Fatalf("gated pairs diverged from the %s scan: %d vs %d", name, len(gated.pairs), len(other.pairs))
				}
				if !reflect.DeepEqual(gated.runs, other.runs) {
					t.Fatalf("gated runs diverged from the %s scan", name)
				}
			}

			windows := func(s *Scenario, force bool) []PairWindows {
				defer func(old bool) { moverSweepForce = old }(moverSweepForce)
				moverSweepForce = force
				w, err := s.VisibilityWindows(tc.duration)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			want := windows(sc, false)
			if got := windows(sc, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("forced-sweep windows diverged from gated: %d vs %d pairs", len(got), len(want))
			}
			if got := windows(dense, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("dense windows diverged from gated: %d vs %d pairs", len(got), len(want))
			}
		})
	}
}
