package channel

import (
	"fmt"
	"math"

	"qntn/internal/atmosphere"
)

// FSOConfig holds the hardware and environment parameters of a free-space
// optical terminal pair, following the η = η_turb · η_atm · η_eff
// decomposition of the paper's Eq. (2) (after Ghalaii & Pirandola).
type FSOConfig struct {
	// WavelengthM is the optical wavelength (meters).
	WavelengthM float64
	// TxApertureRadiusM is the transmitter aperture radius.
	TxApertureRadiusM float64
	// TxWaistM is the outgoing Gaussian beam waist radius. Zero selects
	// TxApertureRadiusM (collimated beam filling the aperture). Choosing
	// a waist smaller than the aperture trades near-field collimation for
	// far-field divergence; OptimalWaist gives the spot-minimizing value
	// for a design range.
	TxWaistM float64
	// RxApertureRadiusM is the receiver aperture radius.
	RxApertureRadiusM float64
	// ReceiverEfficiency is the lumped detector/optics efficiency η_eff.
	ReceiverEfficiency float64
	// Extinction is the atmospheric absorption/scattering model (η_atm).
	Extinction atmosphere.Extinction
	// Turbulence, when non-nil, enables turbulence-induced beam
	// broadening from the given Cn² profile. The paper's evaluation
	// assumes ideal conditions (nil).
	Turbulence *atmosphere.HufnagelValley
	// PointingJitterRad adds an rms pointing-error half-angle folded into
	// the effective beam divergence. Zero for the paper's ideal setup.
	PointingJitterRad float64
}

// Validate reports whether the configuration is physical.
func (c FSOConfig) Validate() error {
	switch {
	case c.WavelengthM <= 0:
		return fmt.Errorf("channel: non-positive wavelength %g", c.WavelengthM)
	case c.TxApertureRadiusM <= 0:
		return fmt.Errorf("channel: non-positive transmit aperture %g", c.TxApertureRadiusM)
	case c.RxApertureRadiusM <= 0:
		return fmt.Errorf("channel: non-positive receive aperture %g", c.RxApertureRadiusM)
	case c.ReceiverEfficiency <= 0 || c.ReceiverEfficiency > 1:
		return fmt.Errorf("channel: receiver efficiency %g outside (0,1]", c.ReceiverEfficiency)
	case c.PointingJitterRad < 0:
		return fmt.Errorf("channel: negative pointing jitter %g", c.PointingJitterRad)
	case c.TxWaistM < 0 || c.TxWaistM > c.TxApertureRadiusM:
		return fmt.Errorf("channel: beam waist %g outside (0, aperture radius %g]", c.TxWaistM, c.TxApertureRadiusM)
	}
	return c.Extinction.Validate()
}

// waist returns the effective transmit beam waist.
func (c FSOConfig) waist() float64 {
	if c.TxWaistM > 0 {
		return c.TxWaistM
	}
	return c.TxApertureRadiusM
}

// OptimalWaist returns the beam waist that minimizes the spot size at the
// given design range for the given wavelength: w0 = sqrt(λ L / π). A
// transmitter designed for its typical link distance uses this value
// (capped by its aperture radius by the caller).
func OptimalWaist(wavelengthM, designRangeM float64) float64 {
	if math.IsNaN(wavelengthM) || math.IsNaN(designRangeM) ||
		wavelengthM <= 0 || designRangeM <= 0 {
		return 0
	}
	return math.Sqrt(wavelengthM * designRangeM / math.Pi)
}

// MaxUsableRangeM2 returns a squared slant range R² such that any geometry
// with RangeM² > R² is guaranteed to evaluate below the given
// transmissivity threshold. It inverts the diffraction factor alone:
//
//	Total = Diffraction · Atmospheric · Receiver ≤ Diffraction
//	Diffraction = 1 − exp(−2a²/weff²),  weff² ≥ wd² = w0²(1 + (L/zR)²)
//
// so Diffraction ≥ threshold requires weff² ≤ wmax² = 2a²/(−ln(1−threshold))
// and therefore L² ≤ zR²(wmax²/w0² − 1). Turbulence and pointing jitter only
// add to weff², and Atmospheric and Receiver are ≤ 1, so the bound holds for
// every configuration. Breakdown evaluates 1 − exp(−x) to within a few
// units of 2⁻⁵³ absolute, an error that is not small against a tiny
// threshold and that rounds the factor to exactly 1 for a beam much
// narrower than the aperture, so the inversion uses the threshold lowered
// by 2⁻⁵¹, which also absorbs the rounding of 1 − threshold. The returned
// value also carries a small relative margin so that callers comparing an
// independently computed squared distance never reject a geometry the full
// evaluation would accept; it is a prefilter, not a decision — geometries
// within the bound must still be evaluated.
// Thresholds ≤ 2⁻⁵¹ (nothing can be rejected on range) return +Inf, and
// thresholds above 1, which no evaluation reaches, return 0.
func (c FSOConfig) MaxUsableRangeM2(threshold float64) float64 {
	if math.IsNaN(threshold) || threshold <= 0x1p-51 {
		return math.Inf(1)
	}
	if threshold > 1 {
		return 0
	}
	w0 := c.waist()
	a := c.RxApertureRadiusM
	if w0 <= 0 || a <= 0 || c.WavelengthM <= 0 {
		return math.Inf(1)
	}
	wmax2 := 2 * a * a / (-math.Log(1 - (threshold - 0x1p-51)))
	r := wmax2/(w0*w0) - 1
	if r <= 0 {
		// Even at L = 0⁺ the beam is too wide: only the degenerate
		// zero-range geometry can pass.
		return 0
	}
	zR := math.Pi * w0 * w0 / c.WavelengthM
	return zR * zR * r * (1 + 1e-9)
}

// FSOGeometry describes one link instance: slant range, elevation at the
// lower terminal, and the terminal altitudes (used to decide how much
// atmosphere the path crosses).
type FSOGeometry struct {
	RangeM       float64
	ElevationRad float64
	LoAltM       float64
	HiAltM       float64
}

// FSOBreakdown itemizes the factors of an FSO transmissivity computation.
type FSOBreakdown struct {
	// Diffraction is the aperture-capture factor including turbulence
	// broadening (η_turb in the paper's decomposition; equals the pure
	// diffraction capture when turbulence is disabled).
	Diffraction float64
	// Atmospheric is the Beer-Lambert slant-path transmission η_atm.
	Atmospheric float64
	// Receiver is η_eff.
	Receiver float64
	// BeamRadiusM is the effective beam radius at the receiver plane.
	BeamRadiusM float64
	// RytovVariance is the turbulence strength metric for the path (zero
	// when turbulence is disabled).
	RytovVariance float64
	// FriedParameterM is the path coherence length r0 (Inf when
	// turbulence is disabled).
	FriedParameterM float64
}

// Total returns the product of all factors.
func (b FSOBreakdown) Total() float64 {
	return b.Diffraction * b.Atmospheric * b.Receiver
}

// Transmissivity evaluates the channel transmissivity for the given
// geometry.
func (c FSOConfig) Transmissivity(g FSOGeometry) float64 {
	return c.Breakdown(g).Total()
}

// Breakdown evaluates the channel for the given geometry, returning each
// factor separately.
func (c FSOConfig) Breakdown(g FSOGeometry) FSOBreakdown {
	b := FSOBreakdown{Receiver: c.ReceiverEfficiency, FriedParameterM: math.Inf(1)}
	if g.RangeM <= 0 {
		b.Diffraction = 1
		b.Atmospheric = 1
		b.BeamRadiusM = c.waist()
		return b
	}

	// Diffraction-limited Gaussian beam radius at the receiver.
	w0 := c.waist()
	zR := math.Pi * w0 * w0 / c.WavelengthM
	wd2 := w0 * w0 * (1 + (g.RangeM/zR)*(g.RangeM/zR))

	// Turbulence broadening: add the turbulence-divergence term
	// (2 λ L / (π r0))² to the squared spot size, with r0 the Fried
	// parameter of the slant path.
	weff2 := wd2
	if c.Turbulence != nil {
		icn2 := c.Turbulence.IntegrateCn2(g.LoAltM, g.HiAltM, g.ElevationRad)
		if icn2 > 0 {
			k := 2 * math.Pi / c.WavelengthM
			r0 := math.Pow(0.423*k*k*icn2, -3.0/5.0)
			b.FriedParameterM = r0
			spread := 2 * c.WavelengthM * g.RangeM / (math.Pi * r0)
			weff2 += spread * spread
			b.RytovVariance = c.Turbulence.RytovVariance(g.LoAltM, g.HiAltM, g.ElevationRad, c.WavelengthM)
		}
	}
	// Pointing jitter widens the effective spot quadratically.
	if c.PointingJitterRad > 0 {
		j := c.PointingJitterRad * g.RangeM
		weff2 += 4 * j * j
	}

	b.BeamRadiusM = math.Sqrt(weff2)
	a := c.RxApertureRadiusM
	b.Diffraction = 1 - math.Exp(-2*a*a/weff2)
	b.Atmospheric = c.Extinction.Transmission(g.LoAltM, g.HiAltM, g.ElevationRad)
	return b
}

// LinkPolicy gates link establishment the way the paper's simulator does:
// a quantum link exists only when the line-of-sight elevation meets the
// minimum mask and the transmissivity meets the fidelity-derived threshold
// (0.7 in the paper, from Fig. 5).
type LinkPolicy struct {
	MinTransmissivity float64
	MinElevationRad   float64
}

// Usable reports whether a link with the given transmissivity and elevation
// is allowed to carry entanglement.
func (p LinkPolicy) Usable(eta, elevationRad float64) bool {
	return eta >= p.MinTransmissivity && elevationRad >= p.MinElevationRad
}
