package qntn

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/telemetry"
)

// FuzzLoadParams exercises the JSON parameter loader: it must never panic,
// and anything it accepts must validate and survive a save/load round
// trip.
func FuzzLoadParams(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, DefaultParams()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("{}")
	f.Add(`{"wavelength_nm": 532}`)
	f.Add(`{"fidelity_model": "nonsense"}`)
	f.Add("not json at all")

	f.Fuzz(func(t *testing.T, in string) {
		p, err := LoadParams(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("LoadParams accepted invalid params: %v", err)
		}
		var out bytes.Buffer
		if err := SaveParams(&out, p); err != nil {
			t.Fatalf("save of accepted params failed: %v", err)
		}
		if _, err := LoadParams(&out); err != nil {
			t.Fatalf("round trip of accepted params failed: %v", err)
		}
	})
}

// approxEq allows the relative rounding the codec's unit conversions
// (nm↔m, deg↔rad, km↔m, s↔Duration) may introduce — about one ulp per
// multiply, nowhere near the factor-10³ error of a unit mix-up.
func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return diff <= 1e-9*scale
}

// paramsSemanticallyEqual compares every field of two Params: floats within
// approxEq, durations within 2 ns (the s↔ns conversion error bound for
// day-scale values), everything discrete exactly.
func paramsSemanticallyEqual(t *testing.T, a, b Params) {
	t.Helper()
	durationType := reflect.TypeOf(time.Duration(0))
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		fa, fb := va.Field(i), vb.Field(i)
		switch {
		case fa.Kind() == reflect.Float64:
			if !approxEq(fa.Float(), fb.Float()) {
				t.Errorf("%s: %v != %v after round trip", name, fa.Float(), fb.Float())
			}
		case fa.Type() == durationType:
			if d := fa.Int() - fb.Int(); d < -2 || d > 2 {
				t.Errorf("%s: %v != %v after round trip", name, time.Duration(fa.Int()), time.Duration(fb.Int()))
			}
		case fa.Kind() == reflect.Ptr: // *atmosphere.HufnagelValley
			if fa.IsNil() != fb.IsNil() {
				t.Errorf("%s: nil-ness changed after round trip", name)
			} else if !fa.IsNil() {
				for j := 0; j < fa.Elem().NumField(); j++ {
					if !approxEq(fa.Elem().Field(j).Float(), fb.Elem().Field(j).Float()) {
						t.Errorf("%s.%s: %v != %v after round trip", name, fa.Elem().Type().Field(j).Name,
							fa.Elem().Field(j).Float(), fb.Elem().Field(j).Float())
					}
				}
			}
		case fa.Kind() == reflect.Struct: // fault.Config
			for j := 0; j < fa.NumField(); j++ {
				sa, sb := fa.Field(j), fb.Field(j)
				sname := name + "." + fa.Type().Field(j).Name
				switch {
				case sa.Kind() == reflect.Float64:
					if !approxEq(sa.Float(), sb.Float()) {
						t.Errorf("%s: %v != %v after round trip", sname, sa.Float(), sb.Float())
					}
				case sa.Type() == durationType:
					if d := sa.Int() - sb.Int(); d < -2 || d > 2 {
						t.Errorf("%s: %v != %v after round trip", sname, time.Duration(sa.Int()), time.Duration(sb.Int()))
					}
				default:
					if sa.Interface() != sb.Interface() {
						t.Errorf("%s: %v != %v after round trip", sname, sa.Interface(), sb.Interface())
					}
				}
			}
		default: // bool, int64 seed, FidelityModel enum
			if fa.Interface() != fb.Interface() {
				t.Errorf("%s: %v != %v after round trip", name, fa.Interface(), fb.Interface())
			}
		}
	}
}

// FuzzParamsRoundTrip drives the Params codec with structured inputs: any
// parameter set that validates must survive save → load with every field
// semantically intact (unit conversions may cost ulps, never meaning).
func FuzzParamsRoundTrip(f *testing.F) {
	f.Add(1550.0, 30.0, 5.0, int64(1), true)
	f.Add(810.0, 20.0, 120.0, int64(-7), false)
	f.Add(532.0, 0.5, 0.5, int64(0), true)

	f.Fuzz(func(t *testing.T, wavelengthNM, minElevDeg, stepS float64, seed int64, j2 bool) {
		// Gate the fuzzed magnitudes to physically meaningful ranges so the
		// unit conversions stay in exact float territory (a 10^300 step
		// interval overflows time.Duration before the codec ever sees it).
		if !(wavelengthNM > 0 && wavelengthNM < 1e5) ||
			!(minElevDeg >= 0 && minElevDeg < 90) ||
			!(stepS > 0 && stepS < 1e6) {
			return
		}
		p := DefaultParams()
		p.WavelengthM = wavelengthNM * 1e-9
		p.MinElevationRad = minElevDeg / degPerRad
		p.StepInterval = time.Duration(stepS * float64(time.Second))
		p.Fault.Seed = seed
		p.UseJ2 = j2
		if p.Validate() != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveParams(&buf, p); err != nil {
			t.Fatalf("save: %v", err)
		}
		p2, err := LoadParams(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("load of saved params failed: %v\n%s", err, buf.String())
		}
		paramsSemanticallyEqual(t, p, p2)
	})
}

// FuzzProtocolParamsRoundTrip drives the entanglement-protocol block of the
// Params codec: any protocol configuration that validates — including the
// all-zero disabled one, which must stay omitted from the JSON — survives
// save → load with the discrete fields exact and the T2 duration within the
// s↔ns conversion error.
func FuzzProtocolParamsRoundTrip(f *testing.F) {
	f.Add(0.0, 0.0, 0, int64(0))        // disabled: the byte-identity default
	f.Add(0.02, 0.85, 3, int64(5))      // the differential suite's mix
	f.Add(0.0, 1.0, 0, int64(0))        // deterministic swaps, ideal memories
	f.Add(1e-9, 0.5, 64, int64(-1))     // tiny T2, max purify budget
	f.Add(86400.0, 0.001, 1, int64(42)) // day-scale T2, lossy swaps

	f.Fuzz(func(t *testing.T, t2S, swapSuccess float64, purifyPaths int, seed int64) {
		if !(t2S >= 0 && t2S < 1e7) {
			return
		}
		p := DefaultParams()
		p.Protocol.MemoryT2 = time.Duration(t2S * float64(time.Second))
		p.Protocol.SwapSuccess = swapSuccess
		p.Protocol.PurifyPaths = purifyPaths
		p.Protocol.Seed = seed
		if p.Validate() != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveParams(&buf, p); err != nil {
			t.Fatalf("save: %v", err)
		}
		if !p.Protocol.Enabled() && bytes.Contains(buf.Bytes(), []byte("protocol")) {
			t.Fatalf("disabled protocol config serialized:\n%s", buf.String())
		}
		p2, err := LoadParams(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("load of saved params failed: %v\n%s", err, buf.String())
		}
		if p2.Protocol.Enabled() != p.Protocol.Enabled() {
			t.Fatalf("protocol enablement changed: %v -> %v", p.Protocol.Enabled(), p2.Protocol.Enabled())
		}
		paramsSemanticallyEqual(t, p, p2)
	})
}

// FuzzVisibilityWindow perturbs the constellation's epoch and orbital
// elements — the phase offset shifts every satellite along its orbit and
// rotates its plane, which is how an epoch change expresses itself through
// two-body elements — and requires the event-driven engine to agree with
// the stepped oracle at every sample instant. DetailedCoverage carries the
// per-step interval structure and the link-transition count, so DeepEqual
// equality pins each instant's connectivity, not just the aggregate.
func FuzzVisibilityWindow(f *testing.F) {
	// Corpus: the snapshot-equivalence archetype sizes up to the paper's
	// 108-satellite Table II geometry, J2 on one entry to seed the dense
	// pairwise scan next to the analytic arcs.
	f.Add(uint8(1), 500.0, 53.0, 0.0, 30.0, false)
	f.Add(uint8(4), 500.0, 53.0, 0.01, 60.0, false)
	f.Add(uint8(9), 550.0, 60.0, -0.02, 120.0, true)
	f.Add(uint8(18), 500.0, 53.0, 0.003, 300.0, false)

	f.Fuzz(func(t *testing.T, planes uint8, altKm, incDeg, phaseRad, stepS float64, j2 bool) {
		n := int(planes) * 6
		if n < 6 || n > orbit.MaxPaperSatellites {
			return
		}
		if !(altKm >= 300 && altKm <= 2000) || !(incDeg >= 1 && incDeg <= 179) {
			return
		}
		if !(stepS >= 1 && stepS <= 3600) || !(math.Abs(phaseRad) <= math.Pi) {
			return
		}
		p := DefaultParams()
		p.Turbulence = nil
		p.SatelliteAltitudeM = altKm * 1e3
		p.InclinationDeg = incDeg
		p.StepInterval = time.Duration(stepS * float64(time.Second))
		p.UseJ2 = j2
		elems, err := orbit.PaperConstellationWith(n, p.SatelliteAltitudeM, p.InclinationDeg)
		if err != nil {
			return
		}
		duration := 40 * p.StepInterval
		build := func(p Params) (*Scenario, error) {
			sats := make([]netsim.Node, len(elems))
			for i, e := range elems {
				e.ApplyJ2 = p.UseJ2
				e.TrueAnomalyRad += phaseRad
				e.RAANRad += phaseRad / 7
				sats[i] = netsim.NewSatelliteNode(fmt.Sprintf("SAT-%03d", i+1), e)
			}
			return assemble(SpaceGround, p, sats)
		}
		sc, err := build(p)
		if err != nil {
			return
		}
		pe := p
		pe.EventDriven = true
		sce, err := build(pe)
		if err != nil {
			t.Fatalf("event-driven build failed where stepped succeeded: %v", err)
		}
		want, err := sc.DetailedCoverage(duration)
		if err != nil {
			t.Fatalf("stepped coverage: %v", err)
		}
		got, err := sce.DetailedCoverage(duration)
		if err != nil {
			t.Fatalf("event-driven coverage: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event-driven coverage diverged from stepped oracle\nplanes=%d alt=%.1fkm inc=%.1f phase=%g step=%gs j2=%v\n got: %+v\nwant: %+v",
				planes, altKm, incDeg, phaseRad, stepS, j2, got, want)
		}
	})
}

// FuzzTrafficQuery drives the daemon's traffic route with arbitrary
// bodies: every body must get either a 200 whose NDJSON the strict event
// codec parses, one record per reported step, or a 4xx — never a panic or
// a 5xx. The seeds are the benchmark's query mix plus malformed, oversized
// and out-of-range bodies. No rate is skipped: the daemon refuses a query
// whose expected arrivals exceed maxQueryArrivals before generating any.
func FuzzTrafficQuery(f *testing.F) {
	mix := []string{
		`"arch":"space-ground","satellites":6,"horizon":"10m"`,
		`"arch":"space-ground","satellites":24,"horizon":"20m"`,
		`"arch":"space-ground","satellites":54,"horizon":"10m"`,
		`"arch":"space-ground","satellites":54,"horizon":"20m"`,
		`"arch":"space-ground","satellites":108,"horizon":"10m"`,
		`"arch":"space-ground","satellites":108,"horizon":"20m"`,
		`"arch":"space-ground","satellites":24,"horizon":"30m"`,
		`"arch":"air-ground","horizon":"10m"`,
		`"arch":"hybrid","satellites":12,"horizon":"10m"`,
	}
	for i, shape := range mix {
		f.Add(fmt.Sprintf(`{%s,"rate_per_hour_per_site":30,"diurnal_amplitude":0.3,"peak_hour":14,"seed":%d}`, shape, i+1))
	}
	for _, body := range []string{
		``, `{`, `}`, `null`, `[]`, `"air-ground"`, `{"arch":1}`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"bogus":1}`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"10m"} trailing`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"10m","seed":1.5}`,
		`{"arch":"` + strings.Repeat("a", maxQueryBytes) + `","rate_per_hour_per_site":10}`,
		`{"arch":"space-ground","satellites":109,"rate_per_hour_per_site":10,"horizon":"10m"}`,
		`{"arch":"space-ground","satellites":-6,"rate_per_hour_per_site":10,"horizon":"10m"}`,
		`{"arch":"hybrid","satellites":7,"rate_per_hour_per_site":10,"horizon":"10m"}`,
		`{"arch":"air-ground","rate_per_hour_per_site":-1,"horizon":"10m"}`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"diurnal_amplitude":1,"horizon":"10m"}`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"peak_hour":24,"horizon":"10m"}`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"25h"}`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"9223372036854775807ns"}`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"-10m"}`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"10m","workers":-1}`,
		`{"arch":"air-ground","rate_per_hour_per_site":10,"horizon":"10m","workers":1000000}`,
		`{"arch":"air-ground","rate_per_hour_per_site":1e400}`,
		`{"arch":"air-ground","rate_per_hour_per_site":1e300}`,
	} {
		f.Add(body)
	}
	d, err := NewDaemon(DefaultParams(), testClock())
	if err != nil {
		f.Fatal(err)
	}
	h := d.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traffic", strings.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK:
			events, err := telemetry.ReadNDJSON(rec.Body)
			if err != nil {
				t.Fatalf("200 body fails the strict NDJSON reader: %v", err)
			}
			steps, err := strconv.Atoi(rec.Header().Get("X-Qntn-Steps"))
			if err != nil || len(events) != steps {
				t.Fatalf("%d NDJSON records for X-Qntn-Steps %q", len(events), rec.Header().Get("X-Qntn-Steps"))
			}
		case code < 400 || code >= 500:
			t.Fatalf("status %d, want 200 or 4xx: %s", code, rec.Body.String())
		}
	})
}
