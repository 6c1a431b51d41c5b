package netsim

import (
	"math"
	"testing"
	"time"

	"qntn/internal/geo"
	"qntn/internal/orbit"
	"qntn/internal/routing"
)

func TestNodeKinds(t *testing.T) {
	g := NewGroundHost("G1", "TTU", geo.LLA{LatDeg: 36.17, LonDeg: -85.5})
	h := NewHAPNode("HAP-1", geo.LLA{LatDeg: 35.67, LonDeg: -85.07, AltM: 30e3})
	sat := NewSatelliteNode("SAT-001", orbit.CircularLEO(500e3, 53, 0, 0))
	if g.Kind() != Ground || h.Kind() != HAP || sat.Kind() != Satellite {
		t.Fatal("node kinds wrong")
	}
	if g.Network() != "TTU" || h.Network() != "" || sat.Network() != "" {
		t.Fatal("network attribution wrong")
	}
	if Ground.String() != "ground" || Satellite.String() != "satellite" || HAP.String() != "hap" {
		t.Fatal("kind strings wrong")
	}
	// Ground and HAP do not move.
	if g.PositionAt(0) != g.PositionAt(time.Hour) {
		t.Fatal("ground host moved")
	}
	if h.PositionAt(0) != h.PositionAt(time.Hour) {
		t.Fatal("HAP moved")
	}
	// HAP altitude is honored.
	if alt := geo.ToLLA(h.PositionAt(0)).AltM; math.Abs(alt-30e3) > 1 {
		t.Fatalf("HAP altitude %g", alt)
	}
	// Satellites move.
	if sat.PositionAt(0) == sat.PositionAt(time.Minute) {
		t.Fatal("satellite did not move")
	}
}

func TestSatelliteFromSheetMatchesElements(t *testing.T) {
	e := orbit.CircularLEO(500e3, 53, 60, 120)
	sheet, err := orbit.GenerateSheet("S", e, time.Hour, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fromSheet := NewSatelliteFromSheet("S", sheet)
	direct := NewSatelliteNode("S", e)
	// At exact sample times the two agree.
	for _, at := range []time.Duration{0, 30 * time.Second, 10 * time.Minute} {
		d := fromSheet.PositionAt(at).Distance(direct.PositionAt(at))
		if d > 1e-6 {
			t.Fatalf("sheet/element mismatch %g m at %v", d, at)
		}
	}
	// Between samples the sheet holds (zero-order), the direct propagation
	// moves.
	if fromSheet.PositionAt(31*time.Second) != fromSheet.PositionAt(59*time.Second) {
		t.Fatal("sheet should hold between samples")
	}
}

func TestNetworkAddAndSnapshot(t *testing.T) {
	// Simple distance-threshold link model for testing.
	model := LinkModelFunc(func(a, b Node, t time.Duration) (float64, bool) {
		d := a.PositionAt(t).Distance(b.PositionAt(t))
		if d < 100e3 {
			return 0.9, true
		}
		return 0, false
	})
	n := NewNetwork(model)
	near1 := NewGroundHost("A", "X", geo.LLA{LatDeg: 36, LonDeg: -85})
	near2 := NewGroundHost("B", "X", geo.LLA{LatDeg: 36.1, LonDeg: -85})
	far := NewGroundHost("C", "Y", geo.LLA{LatDeg: 40, LonDeg: -100})
	for _, nd := range []Node{near1, near2, far} {
		if err := n.Add(nd); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Add(NewGroundHost("A", "X", geo.LLA{})); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if n.NumNodes() != 3 || n.Node("B") != near2 || n.Node("zz") != nil {
		t.Fatal("node lookup broken")
	}
	g := routing.NewGraph()
	if err := n.SnapshotInto(g, 0); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("snapshot nodes %d", g.NumNodes())
	}
	if eta, ok := g.Eta("A", "B"); !ok || eta != 0.9 {
		t.Fatalf("A-B edge %v,%v", eta, ok)
	}
	if _, ok := g.Eta("A", "C"); ok {
		t.Fatal("far edge should not exist")
	}
	if len(n.ByKind(Ground)) != 3 || len(n.ByKind(Satellite)) != 0 {
		t.Fatal("ByKind broken")
	}
}

func TestMetrics(t *testing.T) {
	var m Metrics
	if m.ServedFraction() != 0 || m.MeanServedFidelity() != 0 {
		t.Fatal("empty metrics should be zero")
	}
	m.Record(Outcome{Request: Request{ID: 1}, Served: true, Fidelity: 0.9})
	m.Record(Outcome{Request: Request{ID: 2}, Served: false})
	m.Record(Outcome{Request: Request{ID: 3}, Served: true, Fidelity: 0.95})
	if got := m.ServedFraction(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("served fraction %g", got)
	}
	if got := m.MeanServedFidelity(); math.Abs(got-0.925) > 1e-12 {
		t.Fatalf("mean fidelity %g", got)
	}
}

// TestMetricsTable drives the aggregate accessors through the degenerate
// shapes experiment code hits in practice: no outcomes at all, a window
// where nothing was served, and mixes.
func TestMetricsTable(t *testing.T) {
	served := func(f float64) Outcome { return Outcome{Served: true, Fidelity: f} }
	unserved := Outcome{}
	cases := []struct {
		name         string
		outcomes     []Outcome
		wantFraction float64
		wantFidelity float64
	}{
		{"empty", nil, 0, 0},
		{"all unserved", []Outcome{unserved, unserved, unserved}, 0, 0},
		{"all served", []Outcome{served(0.9), served(0.7)}, 1, 0.8},
		{"half served", []Outcome{served(1), unserved, served(0.5), unserved}, 0.5, 0.75},
		{"single unserved", []Outcome{unserved}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m Metrics
			for _, o := range tc.outcomes {
				m.Record(o)
			}
			if got := m.ServedFraction(); math.Abs(got-tc.wantFraction) > 1e-12 {
				t.Errorf("ServedFraction = %g, want %g", got, tc.wantFraction)
			}
			if got := m.MeanServedFidelity(); math.Abs(got-tc.wantFidelity) > 1e-12 {
				t.Errorf("MeanServedFidelity = %g, want %g", got, tc.wantFidelity)
			}
		})
	}
}

// TestBeginStepPairAdapter: BeginStep adapts a plain LinkModel to the
// step-evaluator interface with per-pair semantics.
func TestBeginStepPairAdapter(t *testing.T) {
	always := LinkModelFunc(func(a, b Node, t time.Duration) (float64, bool) { return 0.9, true })
	n := NewNetwork(always)
	for _, nd := range []Node{
		NewGroundHost("A", "X", geo.LLA{LatDeg: 36, LonDeg: -85}),
		NewGroundHost("B", "X", geo.LLA{LatDeg: 36.1, LonDeg: -85}),
	} {
		if err := n.Add(nd); err != nil {
			t.Fatal(err)
		}
	}
	ev := n.BeginStep(0)
	if eta, ok := ev.EvaluatePair(0, 1); !ok || eta != 0.9 {
		t.Fatalf("adapter pair = (%g, %v), want (0.9, true)", eta, ok)
	}
	ev.Close()
}

func TestSnapshotIntoReuseAndNodeSetChange(t *testing.T) {
	// Time-varying model: the A-B edge exists only at t=0, so a reused
	// graph must drop it at the next step.
	model := LinkModelFunc(func(a, b Node, at time.Duration) (float64, bool) {
		if at == 0 && a.ID() != "C" && b.ID() != "C" {
			return 0.5, true
		}
		return 0, false
	})
	n := NewNetwork(model)
	for _, nd := range []Node{
		NewGroundHost("A", "X", geo.LLA{LatDeg: 36, LonDeg: -85}),
		NewGroundHost("B", "X", geo.LLA{LatDeg: 36.1, LonDeg: -85}),
	} {
		if err := n.Add(nd); err != nil {
			t.Fatal(err)
		}
	}
	g := routing.NewGraph()
	if err := n.SnapshotInto(g, 0); err != nil {
		t.Fatal(err)
	}
	if eta, ok := g.Eta("A", "B"); !ok || eta != 0.5 {
		t.Fatalf("A-B edge = %v,%v, want 0.5,true", eta, ok)
	}
	if err := n.SnapshotInto(g, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Eta("A", "B"); ok {
		t.Fatal("stale A-B edge survived SnapshotInto reuse")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}

	// Growing the network invalidates the reused graph's node set; the
	// next SnapshotInto must rebuild it.
	if err := n.Add(NewGroundHost("C", "Y", geo.LLA{LatDeg: 40, LonDeg: -100})); err != nil {
		t.Fatal(err)
	}
	if err := n.SnapshotInto(g, 0); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d after node-set change, want 3", g.NumNodes())
	}
	if eta, ok := g.Eta("A", "B"); !ok || eta != 0.5 {
		t.Fatalf("A-B edge after rebuild = %v,%v, want 0.5,true", eta, ok)
	}
	if _, ok := g.Eta("A", "C"); ok {
		t.Fatal("model excludes C but edge exists")
	}
}
