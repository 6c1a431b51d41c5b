package qntn

import (
	"math"
	"testing"
	"time"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if err := p.SpaceDownlinkFSO().Validate(); err != nil {
		t.Fatalf("space FSO config invalid: %v", err)
	}
	if err := p.HAPDownlinkFSO().Validate(); err != nil {
		t.Fatalf("HAP FSO config invalid: %v", err)
	}
	if err := p.Fiber().Validate(); err != nil {
		t.Fatalf("fiber config invalid: %v", err)
	}
}

func TestDefaultParamsMatchPaperConstants(t *testing.T) {
	p := DefaultParams()
	if p.GroundApertureRadiusM != 0.60 {
		t.Errorf("ground aperture radius %g, paper uses 120 cm apertures", p.GroundApertureRadiusM)
	}
	if p.HAPApertureRadiusM != 0.15 {
		t.Errorf("HAP aperture radius %g, paper uses 30 cm apertures", p.HAPApertureRadiusM)
	}
	if math.Abs(p.MinElevationRad-math.Pi/9) > 1e-12 {
		t.Errorf("elevation mask %g, paper uses π/9", p.MinElevationRad)
	}
	if p.TransmissivityThreshold != 0.7 {
		t.Errorf("threshold %g, paper uses 0.7", p.TransmissivityThreshold)
	}
	if p.FiberAttenuationDBPerKm != 0.15 {
		t.Errorf("fiber attenuation %g, paper uses 0.15 dB/km", p.FiberAttenuationDBPerKm)
	}
	if p.SatelliteAltitudeM != 500e3 {
		t.Errorf("satellite altitude %g, paper uses 500 km", p.SatelliteAltitudeM)
	}
	if p.InclinationDeg != 53 {
		t.Errorf("inclination %g, paper uses 53°", p.InclinationDeg)
	}
	if p.HAPLatDeg != 35.6692 || p.HAPLonDeg != -85.0662 || p.HAPAltM != 30e3 {
		t.Errorf("HAP position (%g, %g, %g) differs from paper", p.HAPLatDeg, p.HAPLonDeg, p.HAPAltM)
	}
	if p.StepInterval != 30*time.Second {
		t.Errorf("step interval %v, paper records at 30 s", p.StepInterval)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.WavelengthM = 0 },
		func(p *Params) { p.GroundApertureRadiusM = -1 },
		func(p *Params) { p.HAPApertureRadiusM = 0 },
		func(p *Params) { p.SpaceBeamWaistM = 0 },
		func(p *Params) { p.SpaceBeamWaistM = p.GroundApertureRadiusM * 2 },
		func(p *Params) { p.HAPBeamWaistM = p.HAPApertureRadiusM * 2 },
		func(p *Params) { p.ReceiverEfficiency = 0 },
		func(p *Params) { p.ReceiverEfficiency = 1.1 },
		func(p *Params) { p.ZenithOpticalDepth = -0.1 },
		func(p *Params) { p.FiberAttenuationDBPerKm = -1 },
		func(p *Params) { p.TransmissivityThreshold = 1.5 },
		func(p *Params) { p.MinElevationRad = math.Pi },
		func(p *Params) { p.SatelliteAltitudeM = 0 },
		func(p *Params) { p.HAPAltM = -1 },
		func(p *Params) { p.StepInterval = 0 },
		func(p *Params) { p.PointingJitterRad = -1e-6 },
	}
	for i, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestFidelityModelString(t *testing.T) {
	if SourceAtBestSplit.String() != "source-at-best-split" {
		t.Error("best-split name wrong")
	}
	if SourceAtEndpoint.String() != "source-at-endpoint" {
		t.Error("endpoint name wrong")
	}
	if FidelityModel(99).String() == "" {
		t.Error("unknown model should still render")
	}
}

func TestArchitectureString(t *testing.T) {
	if SpaceGround.String() != "space-ground" || AirGround.String() != "air-ground" || Hybrid.String() != "hybrid" {
		t.Fatal("architecture names wrong")
	}
	if Architecture(42).String() == "" {
		t.Fatal("unknown architecture should render")
	}
}
