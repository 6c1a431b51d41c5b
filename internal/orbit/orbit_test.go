package orbit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"qntn/internal/geo"
)

func paperOrbit() Elements {
	return CircularLEO(PaperAltitudeM, PaperInclinationDeg, 0, 0)
}

func TestCircularLEOSemiMajorAxis(t *testing.T) {
	e := paperOrbit()
	if math.Abs(e.SemiMajorAxisM-6871e3) > 1 {
		t.Fatalf("semi-major axis %g, paper uses 6871 km", e.SemiMajorAxisM)
	}
}

func TestPeriodLEO(t *testing.T) {
	// A 500 km circular orbit has a period of roughly 94.5 minutes.
	p := paperOrbit().Period()
	if p < 93*time.Minute || p > 96*time.Minute {
		t.Fatalf("period %v outside expected LEO range", p)
	}
}

func TestRadiusConstantForCircular(t *testing.T) {
	e := paperOrbit()
	for _, dt := range []time.Duration{0, time.Minute, time.Hour, 5 * time.Hour} {
		r := e.PositionECI(dt).Norm()
		if math.Abs(r-e.SemiMajorAxisM) > 1e-3 {
			t.Fatalf("radius %g at %v, want %g", r, dt, e.SemiMajorAxisM)
		}
		recef := e.PositionECEF(dt).Norm()
		if math.Abs(recef-e.SemiMajorAxisM) > 1e-3 {
			t.Fatalf("ECEF radius %g at %v", recef, dt)
		}
	}
}

func TestInclinationBoundsLatitude(t *testing.T) {
	// Subsatellite latitude never exceeds the inclination.
	e := paperOrbit()
	maxLat := 0.0
	for dt := time.Duration(0); dt < 3*time.Hour; dt += 30 * time.Second {
		lat := math.Abs(e.SubsatellitePoint(dt).LatDeg)
		if lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat > PaperInclinationDeg+0.01 {
		t.Fatalf("max latitude %g exceeds inclination", maxLat)
	}
	if maxLat < PaperInclinationDeg-1 {
		t.Fatalf("max latitude %g never approaches inclination over 3 h", maxLat)
	}
}

func TestOrbitReturnsAfterPeriod(t *testing.T) {
	e := paperOrbit()
	p := e.Period()
	start := e.PositionECI(0)
	end := e.PositionECI(p)
	if start.Distance(end) > 100 { // meters, after one full revolution
		t.Fatalf("ECI position drifted %g m after one period", start.Distance(end))
	}
}

func TestEquatorCrossingAtAscendingNode(t *testing.T) {
	// At epoch with true anomaly 0 and arg-perigee 0, the satellite is at
	// the ascending node: on the equator, longitude = RAAN (t=0 so no
	// Earth rotation offset).
	e := CircularLEO(PaperAltitudeM, 53, 60, 0)
	p := geo.ToLLA(e.PositionECEF(0))
	if math.Abs(p.LatDeg) > 1e-6 {
		t.Fatalf("latitude at ascending node %g", p.LatDeg)
	}
	if math.Abs(p.LonDeg-60) > 1e-6 {
		t.Fatalf("longitude at ascending node %g, want 60", p.LonDeg)
	}
}

func TestEccentricOrbitKeplerSolution(t *testing.T) {
	// Eccentric orbit: radius oscillates between perigee and apogee and
	// the Kepler solver conserves the vis-viva radius limits.
	e := Elements{
		SemiMajorAxisM: 7000e3,
		Eccentricity:   0.1,
		InclinationRad: geo.Rad(30),
	}
	rMin, rMax := math.Inf(1), 0.0
	for dt := time.Duration(0); dt < e.Period(); dt += 10 * time.Second {
		r := e.PositionECI(dt).Norm()
		rMin = math.Min(rMin, r)
		rMax = math.Max(rMax, r)
	}
	perigee := e.SemiMajorAxisM * (1 - e.Eccentricity)
	apogee := e.SemiMajorAxisM * (1 + e.Eccentricity)
	if math.Abs(rMin-perigee) > 2e3 || math.Abs(rMax-apogee) > 2e3 {
		t.Fatalf("radius range [%g, %g], want [%g, %g]", rMin, rMax, perigee, apogee)
	}
}

func TestSolveKeplerIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Float64() * 2 * math.Pi
		ecc := rng.Float64() * 0.95
		ea := solveKepler(m, ecc)
		return math.Abs(ea-ecc*math.Sin(ea)-m) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	bad := Elements{SemiMajorAxisM: 1000}
	if err := bad.Validate(); err == nil {
		t.Error("sub-surface orbit accepted")
	}
	hyper := Elements{SemiMajorAxisM: 7000e3, Eccentricity: 1.2}
	if err := hyper.Validate(); err == nil {
		t.Error("hyperbolic orbit accepted")
	}
	if err := paperOrbit().Validate(); err != nil {
		t.Errorf("paper orbit rejected: %v", err)
	}
}

func TestGMSTFullDay(t *testing.T) {
	// Earth rotates ~360.9856 degrees per 24 h (sidereal rate over a solar
	// day slightly exceeds one turn).
	theta := GMST(24 * time.Hour)
	deg := geo.Deg(theta)
	if deg < 0.5 || deg > 1.5 {
		t.Fatalf("GMST after 24h = %g° (mod 360), want ≈0.99°", deg)
	}
}

func TestTableIICatalog(t *testing.T) {
	cat := paperCatalog(t)
	if len(cat) != 108 {
		t.Fatalf("catalog size %d, want 108", len(cat))
	}
	// All circular, 500 km, 53 degrees.
	raanCount := map[int]int{}
	for i, e := range cat {
		if e.Eccentricity != 0 {
			t.Fatalf("satellite %d eccentric", i)
		}
		if math.Abs(e.SemiMajorAxisM-6871e3) > 1 {
			t.Fatalf("satellite %d semi-major axis %g", i, e.SemiMajorAxisM)
		}
		if math.Abs(geo.Deg(e.InclinationRad)-53) > 1e-9 {
			t.Fatalf("satellite %d inclination %g", i, geo.Deg(e.InclinationRad))
		}
		raanCount[int(math.Round(geo.Deg(e.RAANRad)))]++
	}
	// 18 planes, 20 degrees apart, 6 satellites each.
	if len(raanCount) != 18 {
		t.Fatalf("distinct RAANs %d, want 18", len(raanCount))
	}
	for raan := 0; raan < 360; raan += 20 {
		if raanCount[raan] != 6 {
			t.Fatalf("plane RAAN %d has %d satellites, want 6", raan, raanCount[raan])
		}
	}
	// First 36 satellites span only the base 6 planes.
	for i := 0; i < 36; i++ {
		raan := int(math.Round(geo.Deg(cat[i].RAANRad)))
		if raan%60 != 0 {
			t.Fatalf("satellite %d (first 36) in gap plane RAAN %d", i, raan)
		}
	}
	// No duplicate orbital slots.
	seen := map[[2]int]bool{}
	for i, e := range cat {
		key := [2]int{int(math.Round(geo.Deg(e.RAANRad))), int(math.Round(geo.Deg(e.TrueAnomalyRad)))}
		if seen[key] {
			t.Fatalf("duplicate slot %v at satellite %d", key, i)
		}
		seen[key] = true
	}
}

func TestPaperConstellationSizes(t *testing.T) {
	for n := 6; n <= 108; n += 6 {
		sats, err := PaperConstellation(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(sats) != n {
			t.Fatalf("n=%d returned %d", n, len(sats))
		}
	}
	for _, n := range []int{0, 5, 7, 114, -6} {
		if _, err := PaperConstellation(n); err == nil {
			t.Errorf("n=%d accepted", n)
		}
	}
}

func TestWalkerDelta(t *testing.T) {
	sats, err := WalkerDelta(36, 6, 1, 53, PaperAltitudeM)
	if err != nil {
		t.Fatal(err)
	}
	if len(sats) != 36 {
		t.Fatalf("got %d satellites", len(sats))
	}
	if _, err := WalkerDelta(35, 6, 0, 53, PaperAltitudeM); err == nil {
		t.Error("non-divisible Walker accepted")
	}
	if _, err := WalkerDelta(0, 0, 0, 53, PaperAltitudeM); err == nil {
		t.Error("zero Walker accepted")
	}
}

func TestGenerateSheet(t *testing.T) {
	sheet, err := GenerateSheet("SAT-001", paperOrbit(), 10*time.Minute, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(sheet.Samples) != 21 {
		t.Fatalf("sample count %d, want 21", len(sheet.Samples))
	}
	if sheet.Duration() != 10*time.Minute {
		t.Fatalf("duration %v", sheet.Duration())
	}
	// Zero-order hold.
	if sheet.At(44*time.Second) != sheet.Samples[1].ECEF {
		t.Fatal("At(44s) should hold the 30s sample")
	}
	if sheet.At(-time.Second) != sheet.Samples[0].ECEF {
		t.Fatal("negative time should clamp to first sample")
	}
	if sheet.At(time.Hour) != sheet.Samples[20].ECEF {
		t.Fatal("overflow time should clamp to last sample")
	}
}

func TestGenerateSheetRejectsBadInputs(t *testing.T) {
	if _, err := GenerateSheet("x", paperOrbit(), time.Minute, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := GenerateSheet("x", paperOrbit(), -time.Minute, time.Second); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := GenerateSheet("x", Elements{SemiMajorAxisM: 1}, time.Minute, time.Second); err == nil {
		t.Error("invalid orbit accepted")
	}
}

func TestGenerateSheets(t *testing.T) {
	sats, _ := PaperConstellation(12)
	sheets, err := GenerateSheets(sats, time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(sheets) != 12 {
		t.Fatalf("%d sheets", len(sheets))
	}
	if sheets[0].Name != "SAT-001" || sheets[11].Name != "SAT-012" {
		t.Fatalf("sheet names %s..%s", sheets[0].Name, sheets[11].Name)
	}
}

func TestConstellationSpread(t *testing.T) {
	// At the exact epoch some slot pairs coincide (different planes cross
	// and true anomalies u and 180°-u sit on the crossing at t=0), so
	// measure spread at a generic instant: minimum pairwise distance must
	// exceed 100 km.
	cat := paperCatalog(t)
	const when = 137 * time.Second
	minD := math.Inf(1)
	pos := make([]geo.Vec3, len(cat))
	for i, e := range cat {
		pos[i] = e.PositionECI(when)
	}
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if d := pos[i].Distance(pos[j]); d < minD {
				minD = d
			}
		}
	}
	if minD < 100e3 {
		t.Fatalf("minimum satellite separation %g km too small", minD/1000)
	}
}

// paperCatalog returns the paper's full 108-satellite Table II catalog.
func paperCatalog(t *testing.T) []Elements {
	t.Helper()
	cat, err := PaperConstellation(MaxPaperSatellites)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}
