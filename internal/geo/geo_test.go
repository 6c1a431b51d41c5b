package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestECEFRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := LLA{
			LatDeg: rng.Float64()*170 - 85,
			LonDeg: rng.Float64()*360 - 180,
			AltM:   rng.Float64() * 1e6,
		}
		back := ToLLA(p.ECEF())
		return math.Abs(back.LatDeg-p.LatDeg) < 1e-9 &&
			math.Abs(back.LonDeg-p.LonDeg) < 1e-9 &&
			math.Abs(back.AltM-p.AltM) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestECEFKnownPoints(t *testing.T) {
	// Equator/prime meridian at sea level is (R, 0, 0).
	p := LLA{0, 0, 0}.ECEF()
	if math.Abs(p.X-EarthRadiusM) > 1e-6 || math.Abs(p.Y) > 1e-6 || math.Abs(p.Z) > 1e-6 {
		t.Fatalf("equator ECEF %v", p)
	}
	// North pole.
	np := LLA{90, 0, 0}.ECEF()
	if math.Abs(np.Z-EarthRadiusM) > 1e-6 || math.Abs(np.X) > 1e-3 {
		t.Fatalf("north pole ECEF %v", np)
	}
}

func TestVec3Algebra(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-4, 5, 0.5}
	if got := a.Add(b).Sub(b); got.Distance(a) > 1e-12 {
		t.Fatal("add/sub not inverse")
	}
	if got := a.Cross(b).Dot(a); math.Abs(got) > 1e-10 {
		t.Fatal("cross product not orthogonal to a")
	}
	if got := a.Cross(b).Dot(b); math.Abs(got) > 1e-10 {
		t.Fatal("cross product not orthogonal to b")
	}
	if got := a.Scale(2).Norm(); math.Abs(got-2*a.Norm()) > 1e-12 {
		t.Fatal("scale does not scale norm")
	}
	if u := a.Unit(); math.Abs(u.Norm()-1) > 1e-12 {
		t.Fatal("unit vector not unit length")
	}
	if z := (Vec3{}).Unit(); z != (Vec3{}) {
		t.Fatal("unit of zero vector changed")
	}
}

func TestGreatCircleKnown(t *testing.T) {
	// Quarter circumference between equator and pole.
	d := GreatCircleM(LLA{0, 0, 0}, LLA{90, 0, 0})
	want := math.Pi / 2 * EarthRadiusM
	if math.Abs(d-want) > 1 {
		t.Fatalf("quarter circle %g, want %g", d, want)
	}
	// Symmetric and zero on identical points.
	a := LLA{36.17, -85.5, 0}
	b := LLA{35.04, -85.28, 0}
	if GreatCircleM(a, a) != 0 {
		t.Fatal("distance to self nonzero")
	}
	if math.Abs(GreatCircleM(a, b)-GreatCircleM(b, a)) > 1e-9 {
		t.Fatal("great circle not symmetric")
	}
}

func TestTennesseeCityDistances(t *testing.T) {
	// Sanity anchor for the QNTN layout: Cookeville (TTU) to Chattanooga
	// (EPB) is roughly 130 km; TTU to Oak Ridge roughly 110 km.
	ttu := LLA{36.1757, -85.5066, 0}
	epb := LLA{35.04159, -85.2799, 0}
	ornl := LLA{35.91, -84.3, 0}
	if d := GreatCircleM(ttu, epb) / 1000; d < 100 || d > 160 {
		t.Errorf("TTU-EPB distance %g km outside plausible range", d)
	}
	if d := GreatCircleM(ttu, ornl) / 1000; d < 80 || d > 140 {
		t.Errorf("TTU-ORNL distance %g km outside plausible range", d)
	}
}

func TestLookZenith(t *testing.T) {
	obs := LLA{36, -85, 0}
	// Target straight up 500 km.
	target := LLA{36, -85, 500e3}.ECEF()
	la := Look(obs, target)
	if math.Abs(la.ElevationRad-math.Pi/2) > 1e-9 {
		t.Fatalf("zenith elevation %g", Deg(la.ElevationRad))
	}
	if math.Abs(la.SlantRangeM-500e3) > 1e-3 {
		t.Fatalf("zenith range %g", la.SlantRangeM)
	}
}

func TestLookBelowHorizon(t *testing.T) {
	obs := LLA{0, 0, 0}
	// A point slightly north at same radius: elevation should be negative
	// (below horizon due to curvature).
	north := LLA{1, 0, 0}.ECEF()
	la := Look(obs, north)
	if la.ElevationRad >= 0 {
		t.Fatalf("surface point should be below horizon, got elevation %g°", Deg(la.ElevationRad))
	}
}

func TestLookElevationDecreasesWithGroundDistance(t *testing.T) {
	obs := LLA{36, -85, 0}
	alt := 500e3
	prev := math.Inf(1)
	for _, dlat := range []float64{0, 1, 2, 4, 8} {
		sat := LLA{36 + dlat, -85, alt}.ECEF()
		el := Look(obs, sat).ElevationRad
		if el >= prev {
			t.Fatalf("elevation did not decrease at dlat=%g", dlat)
		}
		prev = el
	}
}

func TestENUOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := LLA{rng.Float64()*170 - 85, rng.Float64()*360 - 180, 0}
		e, n, u := ENU(p)
		ok := math.Abs(e.Norm()-1) < 1e-12 &&
			math.Abs(n.Norm()-1) < 1e-12 &&
			math.Abs(u.Norm()-1) < 1e-12 &&
			math.Abs(e.Dot(n)) < 1e-12 &&
			math.Abs(e.Dot(u)) < 1e-12 &&
			math.Abs(n.Dot(u)) < 1e-12
		// Right-handed: e × n = u.
		return ok && e.Cross(n).Distance(u) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLineOfSight(t *testing.T) {
	a := LLA{36, -85, 500e3}.ECEF()
	b := LLA{36, -84, 500e3}.ECEF()
	if !LineOfSight(a, b, 0) {
		t.Fatal("nearby satellites should see each other")
	}
	// Antipodal satellites are blocked by the Earth.
	c := LLA{-36, 95, 500e3}.ECEF()
	if LineOfSight(a, c, 0) {
		t.Fatal("antipodal satellites should be blocked")
	}
	// Two ground points: blocked with any positive clearance.
	g1 := LLA{36, -85, 10}.ECEF()
	g2 := LLA{35, -85, 10}.ECEF()
	if LineOfSight(g1, g2, 100) {
		t.Fatal("long ground-to-ground path should be blocked by curvature")
	}
}

func TestElevationBetweenSymmetricChoice(t *testing.T) {
	ground := LLA{36, -85, 0}.ECEF()
	sat := LLA{37, -85, 500e3}.ECEF()
	e1 := ElevationBetween(ground, sat)
	e2 := ElevationBetween(sat, ground)
	if math.Abs(e1-e2) > 1e-12 {
		t.Fatal("ElevationBetween should not depend on argument order")
	}
	if e1 <= 0 || e1 >= math.Pi/2 {
		t.Fatalf("implausible elevation %g°", Deg(e1))
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	for _, d := range []float64{-180, -20, 0, 53, 90, 360} {
		if got := Deg(Rad(d)); math.Abs(got-d) > 1e-12 {
			t.Errorf("Deg(Rad(%g)) = %g", d, got)
		}
	}
}
