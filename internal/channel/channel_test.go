package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qntn/internal/atmosphere"
)

func TestFiberTransmissivity(t *testing.T) {
	f := Fiber{AttenuationDBPerKm: PaperFiberAttenuationDBPerKm}
	// 0.15 dB/km over 20 km = 3 dB, i.e. eta ≈ 0.501.
	got := f.Transmissivity(20e3)
	if math.Abs(got-0.5012) > 1e-3 {
		t.Fatalf("20 km transmissivity %g, want ≈0.501", got)
	}
	if f.Transmissivity(0) != 1 {
		t.Fatal("zero length should be lossless")
	}
	if f.Transmissivity(-5) != 1 {
		t.Fatal("negative length should clamp to lossless")
	}
}

func TestFiberMonotoneAndMultiplicative(t *testing.T) {
	f := Fiber{AttenuationDBPerKm: 0.15}
	quickCfg := &quick.Config{MaxCount: 100}
	err := quick.Check(func(a, b float64) bool {
		la, lb := math.Abs(a)*1e4, math.Abs(b)*1e4
		// Transmissivities multiply over concatenated spans.
		lhs := f.Transmissivity(la + lb)
		rhs := f.Transmissivity(la) * f.Transmissivity(lb)
		return math.Abs(lhs-rhs) < 1e-12
	}, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFiberLengthForTransmissivity(t *testing.T) {
	f := Fiber{AttenuationDBPerKm: 0.15}
	for _, eta := range []float64{0.9, 0.7, 0.5, 0.1} {
		l := f.LengthForTransmissivity(eta)
		if got := f.Transmissivity(l); math.Abs(got-eta) > 1e-9 {
			t.Errorf("inverse wrong at eta=%g: %g", eta, got)
		}
	}
	if !math.IsInf(f.LengthForTransmissivity(0), 1) {
		t.Error("eta=0 should need infinite fiber")
	}
	lossless := Fiber{AttenuationDBPerKm: 0}
	if !math.IsInf(lossless.LengthForTransmissivity(0.5), 1) {
		t.Error("lossless fiber never reaches eta<1")
	}
}

func TestFiberPaperThresholdDistance(t *testing.T) {
	// With 0.15 dB/km, the 0.7 transmissivity threshold corresponds to
	// about 10.3 km of fiber — comfortably longer than any intra-campus
	// link in Table I.
	f := Fiber{AttenuationDBPerKm: PaperFiberAttenuationDBPerKm}
	l := f.LengthForTransmissivity(0.7) / 1000
	if l < 9 || l < 0 || l > 12 {
		t.Fatalf("threshold distance %g km", l)
	}
}

func TestFiberValidate(t *testing.T) {
	if err := (Fiber{AttenuationDBPerKm: -1}).Validate(); err == nil {
		t.Error("negative attenuation accepted")
	}
	if err := (Fiber{AttenuationDBPerKm: math.NaN()}).Validate(); err == nil {
		t.Error("NaN attenuation accepted")
	}
}

func testFSO() FSOConfig {
	return FSOConfig{
		WavelengthM:        800e-9,
		TxApertureRadiusM:  0.6,
		RxApertureRadiusM:  0.6,
		ReceiverEfficiency: 0.995,
		Extinction:         atmosphere.Extinction{ZenithOpticalDepth: 0.015},
	}
}

func TestFSOValidate(t *testing.T) {
	good := testFSO()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []FSOConfig{
		{},
		{WavelengthM: 800e-9},
		{WavelengthM: 800e-9, TxApertureRadiusM: 0.6},
		{WavelengthM: 800e-9, TxApertureRadiusM: 0.6, RxApertureRadiusM: 0.6, ReceiverEfficiency: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	neg := good
	neg.PointingJitterRad = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestFSOBreakdownFactorsInRange(t *testing.T) {
	c := testFSO()
	err := quick.Check(func(rangeKM, elevDeg float64) bool {
		r := math.Mod(math.Abs(rangeKM), 2000)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return true
		}
		g := FSOGeometry{
			RangeM:       r*1e3 + 1,
			ElevationRad: math.Mod(math.Abs(elevDeg), 90) * math.Pi / 180,
			LoAltM:       0,
			HiAltM:       500e3,
		}
		if math.IsNaN(g.ElevationRad) {
			return true
		}
		b := c.Breakdown(g)
		in01 := func(x float64) bool { return x > 0 && x <= 1 }
		return in01(b.Diffraction) && in01(b.Atmospheric) && in01(b.Receiver) && in01(b.Total())
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFSOZeroRange(t *testing.T) {
	c := testFSO()
	b := c.Breakdown(FSOGeometry{})
	if b.Diffraction != 1 || b.Atmospheric != 1 {
		t.Fatalf("zero range should be lossless apart from η_eff, got %+v", b)
	}
	if math.Abs(b.Total()-c.ReceiverEfficiency) > 1e-12 {
		t.Fatalf("total %g, want η_eff", b.Total())
	}
}

func TestFSOMonotoneInRange(t *testing.T) {
	c := testFSO()
	prev := 2.0
	for _, rng := range []float64{100e3, 300e3, 500e3, 800e3, 1200e3, 2000e3} {
		eta := c.Transmissivity(FSOGeometry{RangeM: rng, ElevationRad: math.Pi / 2, LoAltM: 0, HiAltM: rng})
		if eta >= prev {
			t.Fatalf("transmissivity not decreasing at range %g", rng)
		}
		prev = eta
	}
}

func TestFSOMonotoneInElevation(t *testing.T) {
	// Fixed range, rising elevation → less atmosphere → higher eta.
	c := testFSO()
	prev := 0.0
	for deg := 5.0; deg <= 90; deg += 5 {
		eta := c.Transmissivity(FSOGeometry{RangeM: 600e3, ElevationRad: deg * math.Pi / 180, LoAltM: 0, HiAltM: 500e3})
		if eta <= prev {
			t.Fatalf("transmissivity not increasing at elevation %g°", deg)
		}
		prev = eta
	}
}

func TestFSOInterSatelliteLinkNoAtmosphere(t *testing.T) {
	c := testFSO()
	b := c.Breakdown(FSOGeometry{RangeM: 1000e3, ElevationRad: 0.05, LoAltM: 500e3, HiAltM: 500e3})
	if b.Atmospheric < 0.9999 {
		t.Fatalf("ISL should see no atmosphere, η_atm = %g", b.Atmospheric)
	}
}

func TestFSOTurbulenceDegrades(t *testing.T) {
	clear := testFSO()
	turb := testFSO()
	hv := atmosphere.HV57()
	turb.Turbulence = &hv
	g := FSOGeometry{RangeM: 700e3, ElevationRad: math.Pi / 6, LoAltM: 0, HiAltM: 500e3}
	etaClear := clear.Transmissivity(g)
	etaTurb := turb.Transmissivity(g)
	if etaTurb >= etaClear {
		t.Fatalf("turbulence should reduce transmissivity: %g vs %g", etaTurb, etaClear)
	}
	bt := turb.Breakdown(g)
	if bt.RytovVariance <= 0 || math.IsInf(bt.FriedParameterM, 1) {
		t.Fatalf("turbulence diagnostics missing: %+v", bt)
	}
}

func TestFSOPointingJitterDegrades(t *testing.T) {
	clear := testFSO()
	jitter := testFSO()
	jitter.PointingJitterRad = 2e-6
	g := FSOGeometry{RangeM: 700e3, ElevationRad: math.Pi / 4, LoAltM: 0, HiAltM: 500e3}
	if jitter.Transmissivity(g) >= clear.Transmissivity(g) {
		t.Fatal("pointing jitter should reduce transmissivity")
	}
}

func TestLinkPolicy(t *testing.T) {
	p := LinkPolicy{MinTransmissivity: 0.7, MinElevationRad: math.Pi / 9}
	if !p.Usable(0.8, math.Pi/4) {
		t.Error("good link rejected")
	}
	if p.Usable(0.69, math.Pi/4) {
		t.Error("low-eta link accepted")
	}
	if p.Usable(0.9, math.Pi/18) {
		t.Error("low-elevation link accepted")
	}
	if !p.Usable(0.7, math.Pi/9) {
		t.Error("boundary link should be accepted (inclusive)")
	}
}

// randomFSO draws a valid terminal pair: any wavelength, aperture and waist
// in wide physical ranges, with or without atmosphere, turbulence and
// pointing jitter, and a receiver efficiency that is sometimes exactly 1.
func randomFSO(rng *rand.Rand) FSOConfig {
	c := FSOConfig{
		WavelengthM:        300e-9 + rng.Float64()*2e-6,
		TxApertureRadiusM:  0.005 + rng.Float64()*1.5,
		RxApertureRadiusM:  0.005 + rng.Float64()*1.5,
		ReceiverEfficiency: 1 - 0.9*rng.Float64(),
	}
	if rng.Intn(4) == 0 {
		c.ReceiverEfficiency = 1
	}
	if rng.Intn(2) == 0 {
		c.TxWaistM = c.TxApertureRadiusM * (0.01 + 0.99*rng.Float64())
	}
	if rng.Intn(2) == 0 {
		c.Extinction.ZenithOpticalDepth = rng.Float64() * 0.5
	}
	if rng.Intn(3) == 0 {
		c.Turbulence = &atmosphere.HufnagelValley{WindSpeedMS: 21, GroundCn2: 1.7e-14, Scale: 0.5 + 4*rng.Float64()}
	}
	if rng.Intn(3) == 0 {
		c.PointingJitterRad = rng.Float64() * 1e-5
	}
	return c
}

// randomGeometry draws the non-range part of a link geometry: any elevation
// and terminal altitudes from the ground to beyond the atmosphere.
func randomGeometry(rng *rand.Rand, rangeM float64) FSOGeometry {
	lo := rng.Float64() * 40e3
	return FSOGeometry{
		RangeM:       rangeM,
		ElevationRad: rng.Float64() * math.Pi / 2,
		LoAltM:       lo,
		HiAltM:       lo + rng.Float64()*2000e3,
	}
}

// TestMaxUsableRangeBound is the property the spatial grid's cell edge and
// every squared-range prefilter rest on: for random terminals, thresholds
// and geometries, a geometry whose squared range exceeds MaxUsableRangeM2
// evaluates below the threshold — just past the bound and far beyond it.
func TestMaxUsableRangeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	finite := 0
	for trial := 0; trial < 2000; trial++ {
		c := randomFSO(rng)
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: generator drew an invalid config: %v", trial, err)
		}
		th := rng.Float64()
		switch rng.Intn(10) {
		case 0:
			th = 1 - math.Pow(10, -1-8*rng.Float64()) // near 1
		case 1:
			th = math.Pow(10, -12*rng.Float64()) // down to 1e-12
		}
		bound := c.MaxUsableRangeM2(th)
		if math.IsNaN(bound) || bound < 0 {
			t.Fatalf("trial %d: bound %g for threshold %g", trial, bound, th)
		}
		if math.IsInf(bound, 1) {
			continue
		}
		finite++
		edge := math.Nextafter(math.Sqrt(bound), math.Inf(1))
		for _, r := range []float64{edge, edge * (1 + 1e-9), edge * (1 + rng.Float64()), edge * (1 + 1e3*rng.Float64())} {
			if !(r*r > bound) || r <= 0 {
				continue
			}
			g := randomGeometry(rng, r)
			if eta := c.Transmissivity(g); !(eta < th) {
				t.Fatalf("trial %d: range %g m (range² %g > bound %g) evaluates to %g ≥ threshold %g\nconfig %+v\ngeometry %+v",
					trial, r, r*r, bound, eta, th, c, g)
			}
		}
	}
	if finite < 1000 {
		t.Fatalf("only %d of 2000 trials had a finite bound", finite)
	}
}

// TestMaxUsableRangeMonotoneInThreshold is the metamorphic side of the
// bound: on the random terminals of TestMaxUsableRangeBound, a tighter
// threshold never widens the range gate. For thresholds t₁ < t₂ — drawn
// anywhere in (0, 1], near 1, down to 1e-12, one float apart, and past
// either end — MaxUsableRangeM2(t₂) ≤ MaxUsableRangeM2(t₁).
func TestMaxUsableRangeMonotoneInThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	draw := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return 1 - math.Pow(10, -1-8*rng.Float64()) // near 1
		case 1:
			return math.Pow(10, -12*rng.Float64()) // down to 1e-12
		case 2:
			return -0.5 + 2*rng.Float64() // past either end
		}
		return rng.Float64()
	}
	strict := 0
	for trial := 0; trial < 2000; trial++ {
		c := randomFSO(rng)
		t1, t2 := draw(), draw()
		if rng.Intn(4) == 0 {
			t2 = math.Nextafter(t1, 2)
		}
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t1 == t2 {
			continue
		}
		b1, b2 := c.MaxUsableRangeM2(t1), c.MaxUsableRangeM2(t2)
		if !(b2 <= b1) {
			t.Fatalf("trial %d: threshold %g gives range² bound %g, wider than %g at the looser threshold %g\nconfig %+v",
				trial, t2, b2, b1, t1, c)
		}
		if b2 < b1 {
			strict++
		}
	}
	if strict < 1000 {
		t.Fatalf("only %d of 2000 threshold pairs narrowed the bound; generator too weak", strict)
	}
}

// TestMaxUsableRangeEdgeCases pins the ends of the bound. +Inf means
// distance never rejects: a threshold that is ≤ 0, NaN or within rounding
// of 0, or a degenerate beam. 0 means every positive range falls below the
// threshold: a threshold above 1, or a waist already too wide at zero
// range. At threshold 1 a lossless terminal whose beam is much narrower
// than the aperture still evaluates to exactly 1 at short range, so there
// the bound must be positive.
func TestMaxUsableRangeEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	c := testFSO()
	noWaist := c
	noWaist.TxApertureRadiusM = 0
	noRx := c
	noRx.RxApertureRadiusM = 0
	noWave := c
	noWave.WavelengthM = 0
	for _, tc := range []struct {
		name string
		c    FSOConfig
		th   float64
	}{
		{"zero threshold", c, 0},
		{"negative threshold", c, -0.5},
		{"NaN threshold", c, math.NaN()},
		{"threshold within rounding of 0", c, 1e-17},
		{"no waist", noWaist, 0.7},
		{"no receive aperture", noRx, 0.7},
		{"no wavelength", noWave, 0.7},
	} {
		if got := tc.c.MaxUsableRangeM2(tc.th); got != inf {
			t.Errorf("%s: bound %g, want +Inf", tc.name, got)
		}
	}

	rng := rand.New(rand.NewSource(11))
	// A waist wider than the widest beam the threshold admits: even at
	// zero range the aperture catches too little.
	wide := c
	wide.RxApertureRadiusM = 0.01
	for _, tc := range []struct {
		name string
		c    FSOConfig
		th   float64
	}{
		{"threshold above 1", c, 1.5},
		{"threshold 1, wide waist", c, 1},
		{"waist too wide", wide, 0.7},
	} {
		if got := tc.c.MaxUsableRangeM2(tc.th); got != 0 {
			t.Errorf("%s: bound %g, want 0", tc.name, got)
			continue
		}
		for _, r := range []float64{1e-3, 1, 1e3, 1e6} {
			if g := randomGeometry(rng, r); !(tc.c.Transmissivity(g) < tc.th) {
				t.Errorf("%s: range %g m evaluates to %g, not below %g", tc.name, r, tc.c.Transmissivity(g), tc.th)
			}
		}
	}

	narrow := c
	narrow.TxWaistM = 0.01
	narrow.ReceiverEfficiency = 1
	narrow.Extinction = atmosphere.Extinction{}
	bound := narrow.MaxUsableRangeM2(1)
	if !(bound > 0) || math.IsInf(bound, 1) {
		t.Fatalf("lossless narrow beam at threshold 1: bound %g, want finite and positive", bound)
	}
	if eta := narrow.Transmissivity(randomGeometry(rng, 100)); eta != 1 {
		t.Fatalf("lossless narrow beam at 100 m evaluates to %g, want exactly 1", eta)
	}
	for _, r := range []float64{math.Nextafter(math.Sqrt(bound), inf), 2 * math.Sqrt(bound), 1e6} {
		if g := randomGeometry(rng, r); !(narrow.Transmissivity(g) < 1) {
			t.Errorf("lossless narrow beam at range %g m (bound %g m) evaluates to 1", r, math.Sqrt(bound))
		}
	}
}
