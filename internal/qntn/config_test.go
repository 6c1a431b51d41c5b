package qntn

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"qntn/internal/atmosphere"
)

func TestParamsJSONRoundTrip(t *testing.T) {
	orig := DefaultParams()
	orig.MemoryT2 = 42 * time.Millisecond
	orig.RequireDarkness = true
	orig.TwilightRad = 0.2
	hv := atmosphere.HV57().Scaled(0.5)
	orig.Turbulence = &hv
	orig.FidelityModel = SourceAtEndpoint

	var buf bytes.Buffer
	if err := SaveParams(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.WavelengthM-orig.WavelengthM) > 1e-18 {
		t.Fatalf("wavelength %g vs %g", got.WavelengthM, orig.WavelengthM)
	}
	if got.SpaceBeamWaistM != orig.SpaceBeamWaistM ||
		got.TransmissivityThreshold != orig.TransmissivityThreshold {
		t.Fatal("optics fields drifted")
	}
	if math.Abs(got.MinElevationRad-orig.MinElevationRad) > 1e-12 {
		t.Fatalf("elevation %g vs %g", got.MinElevationRad, orig.MinElevationRad)
	}
	if got.StepInterval != orig.StepInterval || got.MemoryT2 != orig.MemoryT2 {
		t.Fatalf("durations drifted: %v/%v vs %v/%v", got.StepInterval, got.MemoryT2, orig.StepInterval, orig.MemoryT2)
	}
	if !got.RequireDarkness || math.Abs(got.TwilightRad-orig.TwilightRad) > 1e-12 {
		t.Fatal("darkness fields drifted")
	}
	if got.FidelityModel != SourceAtEndpoint {
		t.Fatal("fidelity model drifted")
	}
	if got.Turbulence == nil || got.Turbulence.Scale != 0.5 || got.Turbulence.GroundCn2 != hv.GroundCn2 {
		t.Fatalf("turbulence drifted: %+v", got.Turbulence)
	}
}

func TestParamsJSONNoTurbulence(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "turbulence") {
		t.Fatal("nil turbulence should be omitted")
	}
	got, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Turbulence != nil {
		t.Fatal("turbulence materialized from nothing")
	}
}

func TestLoadParamsRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"unknown field":  `{"wavelength_nm": 532, "bogus": 1}`,
		"unknown model":  `{"fidelity_model": "psychic"}`,
		"invalid params": `{"wavelength_nm": -5}`,
	}
	for name, in := range cases {
		if _, err := LoadParams(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestLoadParamsPointingJitter: a negative rms pointing jitter is refused at
// load time. The FSO budget applies jitter only when it is positive, so an
// accepted negative value would silently run the ideal-pointing model.
func TestLoadParamsPointingJitter(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	const field = `"pointing_jitter_rad": 0,`
	if !strings.Contains(buf.String(), field) {
		t.Fatalf("saved params lack %s:\n%s", field, buf.String())
	}
	for _, tc := range []struct {
		value string
		ok    bool
	}{{"-1", false}, {"-1e-9", false}, {"2e-6", true}} {
		in := strings.Replace(buf.String(), field, `"pointing_jitter_rad": `+tc.value+`,`, 1)
		_, err := LoadParams(strings.NewReader(in))
		if (err == nil) != tc.ok {
			t.Errorf("pointing_jitter_rad %s: err = %v, want accepted %v", tc.value, err, tc.ok)
		}
	}
}

func TestLoadParamsDefaultsFidelityModel(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(buf.String(), `"fidelity_model": "source-at-best-split"`, `"fidelity_model": ""`, 1)
	got, err := LoadParams(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.FidelityModel != SourceAtBestSplit {
		t.Fatal("empty model should default to best-split")
	}
}
