// Package qntn assembles the paper's two regional-network architectures —
// space-ground (LEO constellation) and air-ground (HAP) — over the three
// Tennessee local networks of Table I, and implements the paper's three
// evaluation metrics: daily coverage percentage (Eq. 6-7), percentage of
// served entanglement distribution requests, and average end-to-end
// entanglement fidelity.
package qntn

import (
	"fmt"
	"math"
	"time"

	"qntn/internal/astro"
	"qntn/internal/atmosphere"
	"qntn/internal/channel"
	"qntn/internal/fault"
	"qntn/internal/quantum/protocol"
	"qntn/internal/telemetry"
)

// Params collects every tunable of the study. DefaultParams matches the
// paper's stated configuration where given (apertures, elevation mask,
// threshold, fiber attenuation, altitudes) and calibrates the remaining
// free parameters of the FSO model to the paper's "ideal conditions"
// assumption — see DESIGN.md, "Calibration".
type Params struct {
	// WavelengthM is the optical wavelength of all FSO terminals.
	WavelengthM float64
	// GroundApertureRadiusM is the radius of ground and satellite
	// telescopes (paper: 120 cm aperture → 0.6 m radius).
	GroundApertureRadiusM float64
	// HAPApertureRadiusM is the HAP telescope radius (paper: 30 cm → 0.15 m).
	HAPApertureRadiusM float64
	// SpaceBeamWaistM is the transmit beam waist of satellite/ground
	// space-link terminals (chosen near the spot-minimizing waist for the
	// typical slant range).
	SpaceBeamWaistM float64
	// HAPBeamWaistM is the HAP transmit beam waist.
	HAPBeamWaistM float64
	// ReceiverEfficiency is the lumped η_eff of every FSO receiver.
	ReceiverEfficiency float64
	// ZenithOpticalDepth parameterizes clear-sky extinction.
	ZenithOpticalDepth float64
	// Turbulence, when non-nil, enables turbulent beam broadening. The
	// paper's evaluation assumes ideal (nil) conditions.
	Turbulence *atmosphere.HufnagelValley
	// PointingJitterRad adds rms pointing error (0 = ideal).
	PointingJitterRad float64

	// FiberAttenuationDBPerKm is the paper's 0.15 dB/km.
	FiberAttenuationDBPerKm float64

	// TransmissivityThreshold gates link establishment (paper: 0.7, from
	// the Fig. 5 analysis).
	TransmissivityThreshold float64
	// MinElevationRad is the ground-terminal elevation mask (paper: π/9).
	MinElevationRad float64
	// ISLClearanceAltM is the minimum altitude an inter-satellite
	// line-of-sight must clear; ISLs grazing below it are blocked.
	ISLClearanceAltM float64

	// SatelliteAltitudeM and InclinationDeg configure the constellation
	// (paper: 500 km, 53°).
	SatelliteAltitudeM float64
	InclinationDeg     float64
	// UseJ2 enables secular J2 perturbations in satellite propagation
	// (STK's default). Two-body is the default here because the paper's
	// one-day horizon is insensitive to J2 (verified in the orbit tests
	// and the design ablation).
	UseJ2 bool

	// HAPPosition is the platform location (paper: 35.6692, -85.0662 at
	// 30 km).
	HAPLatDeg float64
	HAPLonDeg float64
	HAPAltM   float64

	// StepInterval is the topology-update period (paper: 30 s STK
	// sampling).
	StepInterval time.Duration

	// Fault configures the deterministic fault-injection layer: satellite
	// outages, HAP station-keeping gaps, ground-station downtime and
	// weather blackouts, precomputed from Fault.Seed into an immutable
	// schedule (see internal/fault) that the scenario's link evaluator
	// gates every pair on. The zero value — the paper's ideal assumption —
	// builds no schedule, so fault-free runs are byte-identical to the
	// baseline. The schedule must cover every instant a run samples
	// (Fault.Horizon, one day when zero); the request drivers and
	// CoverageSweep refuse a run that reaches past it, and CoverFaults
	// lengthens it for a run of known length.
	Fault fault.Config

	// RequireDarkness, when true, gates every ground↔relay FSO link on
	// the ground station being dark (Sun below TwilightRad under the
	// equinox sun model) — the daylight-background constraint the paper's
	// ideal-conditions assumption waives. See internal/astro.
	RequireDarkness bool
	// TwilightRad is the solar depression angle required for darkness
	// (civil twilight, 6°, when zero and RequireDarkness is set).
	TwilightRad float64

	// FidelityModel selects how end-to-end fidelity is computed from a
	// path's link transmissivities.
	FidelityModel FidelityModel

	// Protocol configures the entanglement-protocol layer (T2 memories,
	// seed-derived swap chains, k-path purification — see
	// internal/quantum/protocol): when enabled, every multi-hop request in
	// RunServe/RunArrivals/RunTraffic runs the full swap-and-distill
	// pipeline instead of the instantaneous path-fidelity formula. The zero
	// value — the paper's assumption — disables the layer; disabled runs
	// never branch into it, so their output is byte-identical to the
	// pre-protocol behavior by construction.
	Protocol protocol.Config

	// RoutingEpsilon is the ε of the 1/(η+ε) cost metric.
	RoutingEpsilon float64

	// Telemetry, when non-nil, instruments every scenario assembled from
	// these parameters (see Scenario.Instrument). Runtime wiring only: the
	// collector is excluded from the JSON codec, ParamsHash and Validate,
	// and the nil default costs nothing on any hot path.
	Telemetry *telemetry.Collector

	// EventDriven, when true, selects the event-driven visibility-window
	// engine (windows.go, eventloop.go) as the topology backend of every
	// run — the per-step loop behind Coverage and DetailedCoverage, and the
	// admission core behind RunServe, RunServeDES, RunArrivals and
	// RunTraffic — instead of brute-force per-step snapshot rebuilds (stepper.go). The
	// results are identical — the stepped backend remains the semantic
	// oracle, asserted by the differential test suite — only faster.
	// Runtime wiring only, like Telemetry: excluded from the JSON codec,
	// ParamsHash and Validate. Telemetry-instrumented runs, the serve
	// daemon's included, always step: the per-snapshot counters and step
	// events are filled by Scenario.GraphInto, which the event engine does
	// not call.
	EventDriven bool

	// DisableSpatialIndex forces dense n² candidate generation in both the
	// per-step evaluator and the window precomputation, bypassing the ECEF
	// grid index (see spatialindex.go). The index is exact — results are
	// byte-identical either way, asserted by the equivalence suite — so
	// this exists for differential testing and as an escape hatch. Runtime
	// wiring only, like Telemetry: excluded from the JSON codec, ParamsHash
	// and Validate.
	DisableSpatialIndex bool
}

// FidelityModel selects the entanglement source placement used when
// converting a routed path into an end-to-end Bell-pair fidelity.
type FidelityModel int

const (
	// SourceAtBestSplit (default) places the entangled-photon source at
	// the path position maximizing fidelity — in practice the relay
	// platform, beaming one photon down each arm (Micius-style). Each arm
	// accumulates the product of its link transmissivities as amplitude
	// damping.
	SourceAtBestSplit FidelityModel = iota
	// SourceAtEndpoint keeps the source at the requesting node: a single
	// arm traverses every link, accumulating the full product
	// transmissivity (F = (1+sqrt(η_path))/2).
	SourceAtEndpoint
)

// String implements fmt.Stringer.
func (m FidelityModel) String() string {
	switch m {
	case SourceAtBestSplit:
		return "source-at-best-split"
	case SourceAtEndpoint:
		return "source-at-endpoint"
	default:
		return fmt.Sprintf("FidelityModel(%d)", int(m))
	}
}

// DefaultParams returns the calibrated configuration described in
// DESIGN.md.
func DefaultParams() Params {
	return Params{
		WavelengthM:           532e-9,
		GroundApertureRadiusM: 0.60,
		HAPApertureRadiusM:    0.15,
		// The space-link waist is the calibration lever for the coverage
		// gate: 0.255 m puts the 0.7-transmissivity crossing near 25°
		// elevation, reproducing the paper's 55.17% full-day coverage for
		// 108 satellites (see DESIGN.md, "Calibration").
		SpaceBeamWaistM:         0.255,
		HAPBeamWaistM:           channel.OptimalWaist(532e-9, 80e3), // ≈0.116 m
		ReceiverEfficiency:      0.995,
		ZenithOpticalDepth:      0.015,
		FiberAttenuationDBPerKm: channel.PaperFiberAttenuationDBPerKm,
		TransmissivityThreshold: 0.7,
		MinElevationRad:         math.Pi / 9,
		ISLClearanceAltM:        20e3,
		SatelliteAltitudeM:      500e3,
		InclinationDeg:          53,
		HAPLatDeg:               35.6692,
		HAPLonDeg:               -85.0662,
		HAPAltM:                 30e3,
		StepInterval:            30 * time.Second,
		FidelityModel:           SourceAtBestSplit,
		RoutingEpsilon:          1e-6,
	}
}

// Validate reports whether the parameters are self-consistent.
func (p Params) Validate() error {
	switch {
	case p.WavelengthM <= 0:
		return fmt.Errorf("qntn: non-positive wavelength")
	case p.GroundApertureRadiusM <= 0 || p.HAPApertureRadiusM <= 0:
		return fmt.Errorf("qntn: non-positive aperture radius")
	case p.SpaceBeamWaistM <= 0 || p.SpaceBeamWaistM > p.GroundApertureRadiusM:
		return fmt.Errorf("qntn: space beam waist %g outside (0, %g]", p.SpaceBeamWaistM, p.GroundApertureRadiusM)
	case p.HAPBeamWaistM <= 0 || p.HAPBeamWaistM > p.HAPApertureRadiusM:
		return fmt.Errorf("qntn: HAP beam waist %g outside (0, %g]", p.HAPBeamWaistM, p.HAPApertureRadiusM)
	case p.ReceiverEfficiency <= 0 || p.ReceiverEfficiency > 1:
		return fmt.Errorf("qntn: receiver efficiency %g outside (0,1]", p.ReceiverEfficiency)
	case p.ZenithOpticalDepth < 0:
		return fmt.Errorf("qntn: negative zenith optical depth")
	case p.PointingJitterRad < 0:
		return fmt.Errorf("qntn: negative pointing jitter %g", p.PointingJitterRad)
	case p.FiberAttenuationDBPerKm < 0:
		return fmt.Errorf("qntn: negative fiber attenuation")
	case p.TransmissivityThreshold < 0 || p.TransmissivityThreshold > 1:
		return fmt.Errorf("qntn: transmissivity threshold %g outside [0,1]", p.TransmissivityThreshold)
	case p.MinElevationRad < 0 || p.MinElevationRad >= math.Pi/2:
		return fmt.Errorf("qntn: elevation mask %g outside [0, π/2)", p.MinElevationRad)
	case p.SatelliteAltitudeM <= 0:
		return fmt.Errorf("qntn: non-positive satellite altitude")
	case p.HAPAltM <= 0:
		return fmt.Errorf("qntn: non-positive HAP altitude")
	case p.StepInterval <= 0:
		return fmt.Errorf("qntn: non-positive step interval")
	case p.TwilightRad < 0 || p.TwilightRad >= math.Pi/2:
		return fmt.Errorf("qntn: twilight angle %g outside [0, π/2)", p.TwilightRad)
	}
	if err := p.Fault.Validate(); err != nil {
		return fmt.Errorf("qntn: %w", err)
	}
	if err := p.Protocol.Validate(); err != nil {
		return fmt.Errorf("qntn: %w", err)
	}
	return nil
}

// TopologyStep returns the topology-update cadence every run path derives
// its sampling from: StepInterval when positive, else the paper's 30 s STK
// sampling default. Validate rejects a non-positive StepInterval on the
// constructor paths, but parameters assembled by hand or mutated after
// construction (tests, zero-valued configs) still reach the run loops —
// this single fallback is what keeps a zero interval from degenerating
// into an endless loop or a divide-by-zero step index.
func (p Params) TopologyStep() time.Duration {
	if p.StepInterval > 0 {
		return p.StepInterval
	}
	return 30 * time.Second
}

// CoverFaults returns p with the fault schedule lengthened, when it ends at
// or before last, to one topology step past last, so a run that samples
// instants through last reads drawn faults throughout instead of being
// refused. Each node's outage draws and the weather draws only continue
// past the old end, so every instant before it reads as it did. Params
// without faults, or whose schedule already reaches past last, come back
// unchanged.
func (p Params) CoverFaults(last time.Duration) Params {
	if !p.Fault.Enabled() {
		return p
	}
	end := p.Fault.Horizon
	if end <= 0 {
		end = fault.DefaultHorizon
	}
	if last >= end {
		p.Fault.Horizon = last + p.TopologyStep()
	}
	return p
}

// twilight returns the effective twilight depression angle.
func (p Params) twilight() float64 {
	if p.TwilightRad == 0 {
		return astro.CivilTwilightRad
	}
	return p.TwilightRad
}

// extinction returns the atmosphere model implied by the parameters.
func (p Params) extinction() atmosphere.Extinction {
	return atmosphere.Extinction{ZenithOpticalDepth: p.ZenithOpticalDepth}
}

// SpaceDownlinkFSO returns the FSO configuration of a satellite→ground (or
// satellite→satellite) link: space terminal transmits with the space beam
// waist, ground-class aperture receives.
func (p Params) SpaceDownlinkFSO() channel.FSOConfig {
	return channel.FSOConfig{
		WavelengthM:        p.WavelengthM,
		TxApertureRadiusM:  p.GroundApertureRadiusM,
		TxWaistM:           p.SpaceBeamWaistM,
		RxApertureRadiusM:  p.GroundApertureRadiusM,
		ReceiverEfficiency: p.ReceiverEfficiency,
		Extinction:         p.extinction(),
		Turbulence:         p.Turbulence,
		PointingJitterRad:  p.PointingJitterRad,
	}
}

// HAPDownlinkFSO returns the FSO configuration of a HAP→ground link: the
// HAP transmits through its 30 cm telescope toward a 120 cm ground
// receiver.
func (p Params) HAPDownlinkFSO() channel.FSOConfig {
	return channel.FSOConfig{
		WavelengthM:        p.WavelengthM,
		TxApertureRadiusM:  p.HAPApertureRadiusM,
		TxWaistM:           p.HAPBeamWaistM,
		RxApertureRadiusM:  p.GroundApertureRadiusM,
		ReceiverEfficiency: p.ReceiverEfficiency,
		Extinction:         p.extinction(),
		Turbulence:         p.Turbulence,
		PointingJitterRad:  p.PointingJitterRad,
	}
}

// Fiber returns the fiber model for intra-network ground links.
func (p Params) Fiber() channel.Fiber {
	return channel.Fiber{AttenuationDBPerKm: p.FiberAttenuationDBPerKm}
}
