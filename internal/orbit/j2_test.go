package orbit

import (
	"math"
	"testing"
	"time"

	"qntn/internal/geo"
)

// ttu is the Tennessee Tech ground site.
var ttu = geo.LLA{LatDeg: 36.1757, LonDeg: -85.5066}

func TestNodalRegressionRate(t *testing.T) {
	// Textbook value for a 500 km / 53° circular orbit: ≈ −4.6°/day.
	e := paperOrbit()
	perDay := geo.Deg(e.NodalRegressionRate() * 86400)
	if perDay > -4.0 || perDay < -5.2 {
		t.Fatalf("nodal regression %g°/day, want ≈ -4.6", perDay)
	}
	// Polar orbits do not regress; retrograde orbits precess forward.
	polar := CircularLEO(500e3, 90, 0, 0)
	if math.Abs(polar.NodalRegressionRate()) > 1e-12 {
		t.Fatal("polar orbit should have zero nodal regression")
	}
	retro := CircularLEO(500e3, 120, 0, 0)
	if retro.NodalRegressionRate() <= 0 {
		t.Fatal("retrograde orbit should precess forward")
	}
}

func TestApsidalRotationSignChange(t *testing.T) {
	// dω/dt changes sign at the critical inclination 63.43°.
	below := CircularLEO(500e3, 50, 0, 0)
	above := CircularLEO(500e3, 75, 0, 0)
	if below.ApsidalRotationRate() <= 0 {
		t.Fatal("apsidal rotation should be positive below critical inclination")
	}
	if above.ApsidalRotationRate() >= 0 {
		t.Fatal("apsidal rotation should be negative above critical inclination")
	}
	critical := CircularLEO(500e3, 63.4349, 0, 0)
	if math.Abs(critical.ApsidalRotationRate()) > 1e-9 {
		t.Fatalf("apsidal rotation at critical inclination %g", critical.ApsidalRotationRate())
	}
}

func TestJ2ShiftsRAANOverADay(t *testing.T) {
	e := paperOrbit()
	j2 := e
	j2.ApplyJ2 = true
	// The node regresses ≈4.6° west per day...
	osc := j2.atEpoch(Day)
	if shift := geo.Deg(osc.RAANRad - e.RAANRad); math.Abs(shift+4.61) > 0.2 {
		t.Fatalf("RAAN shift %g°/day, want ≈ -4.61", shift)
	}
	// ...but for a circular orbit the apsidal and mean-anomaly drifts
	// partially cancel the node displacement, leaving a net position
	// offset of tens of km after a day (not the naive ~330 km of a pure
	// node rotation).
	d := e.PositionECI(Day).Distance(j2.PositionECI(Day))
	if d < 20e3 || d > 300e3 {
		t.Fatalf("J2 displacement after a day %g km, want tens-of-km scale", d/1000)
	}
	// At epoch both agree exactly.
	if e.PositionECI(0).Distance(j2.PositionECI(0)) > 1e-6 {
		t.Fatal("J2 should not change the epoch state")
	}
	// Radius is unchanged (secular J2 does not alter the semi-major
	// axis).
	if r := j2.PositionECI(Day).Norm(); math.Abs(r-e.SemiMajorAxisM) > 1e-3 {
		t.Fatalf("J2 changed orbital radius: %g", r)
	}
}

func TestJ2CoverageInsensitivityOneDay(t *testing.T) {
	// The rationale for defaulting to two-body: over the paper's one-day
	// horizon the whole constellation precesses together, so the fraction
	// of time a satellite is visible from Tennessee is nearly unchanged.
	// Compare single-satellite visibility minutes with and without J2.
	count := func(applyJ2 bool) int {
		e := paperOrbit()
		e.ApplyJ2 = applyJ2
		visible := 0
		for at := time.Duration(0); at < Day; at += time.Minute {
			if geo.Look(ttu, e.PositionECEF(at)).ElevationRad >= geo.Rad(20) {
				visible++
			}
		}
		return visible
	}
	plain, withJ2 := count(false), count(true)
	if plain == 0 {
		t.Fatal("no visibility at all")
	}
	diff := math.Abs(float64(plain-withJ2)) / float64(plain)
	if diff > 0.25 {
		t.Fatalf("J2 changed daily visibility by %.0f%% (%d vs %d minutes)", 100*diff, plain, withJ2)
	}
}
