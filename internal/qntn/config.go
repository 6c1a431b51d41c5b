package qntn

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"qntn/internal/atmosphere"
	"qntn/internal/fault"
	"qntn/internal/quantum/protocol"
)

// paramsJSON is the serialized form of Params: durations in seconds,
// enums as strings, turbulence optional.
type paramsJSON struct {
	WavelengthNM            float64    `json:"wavelength_nm"`
	GroundApertureRadiusM   float64    `json:"ground_aperture_radius_m"`
	HAPApertureRadiusM      float64    `json:"hap_aperture_radius_m"`
	SpaceBeamWaistM         float64    `json:"space_beam_waist_m"`
	HAPBeamWaistM           float64    `json:"hap_beam_waist_m"`
	ReceiverEfficiency      float64    `json:"receiver_efficiency"`
	ZenithOpticalDepth      float64    `json:"zenith_optical_depth"`
	Turbulence              *hvJSON    `json:"turbulence,omitempty"`
	PointingJitterRad       float64    `json:"pointing_jitter_rad"`
	FiberAttenuationDBPerKm float64    `json:"fiber_attenuation_db_per_km"`
	TransmissivityThreshold float64    `json:"transmissivity_threshold"`
	MinElevationDeg         float64    `json:"min_elevation_deg"`
	ISLClearanceAltM        float64    `json:"isl_clearance_alt_m"`
	SatelliteAltitudeKM     float64    `json:"satellite_altitude_km"`
	InclinationDeg          float64    `json:"inclination_deg"`
	UseJ2                   bool       `json:"use_j2"`
	HAPLatDeg               float64    `json:"hap_lat_deg"`
	HAPLonDeg               float64    `json:"hap_lon_deg"`
	HAPAltKM                float64    `json:"hap_alt_km"`
	StepIntervalS           float64    `json:"step_interval_s"`
	MemoryT2S               float64    `json:"memory_t2_s"`
	ProcessingDelayPerHopS  float64    `json:"processing_delay_per_hop_s"`
	RequireDarkness         bool       `json:"require_darkness"`
	TwilightDeg             float64    `json:"twilight_deg"`
	Fault                   *faultJSON `json:"fault,omitempty"`
	FidelityModel           string     `json:"fidelity_model"`
	RoutingEpsilon          float64    `json:"routing_epsilon"`
	// Protocol is emitted only when the entanglement-protocol layer is
	// enabled, so protocol-off parameter files (and their ParamsHash) are
	// byte-identical to the pre-protocol format.
	Protocol *protocolJSON `json:"protocol,omitempty"`
}

// protocolJSON is the serialized form of protocol.Config: durations in
// seconds.
type protocolJSON struct {
	MemoryT2S   float64 `json:"memory_t2_s"`
	SwapSuccess float64 `json:"swap_success"`
	PurifyPaths int     `json:"purify_paths"`
	Seed        int64   `json:"seed"`
}

// faultJSON is the serialized form of fault.Config: durations in seconds.
// It is emitted only when the config is non-zero, so fault-free parameter
// files are byte-identical to the pre-fault format.
type faultJSON struct {
	SatMTBFS           float64 `json:"sat_mtbf_s"`
	SatMTTRS           float64 `json:"sat_mttr_s"`
	HAPMTBFS           float64 `json:"hap_mtbf_s"`
	HAPMTTRS           float64 `json:"hap_mttr_s"`
	GroundMTBFS        float64 `json:"ground_mtbf_s"`
	GroundMTTRS        float64 `json:"ground_mttr_s"`
	WeatherP           float64 `json:"weather_p"`
	WeatherMeanS       float64 `json:"weather_mean_s"`
	WeatherAttenuation float64 `json:"weather_attenuation"`
	Seed               int64   `json:"seed"`
	HorizonS           float64 `json:"horizon_s"`
}

type hvJSON struct {
	WindSpeedMS float64 `json:"wind_speed_ms"`
	GroundCn2   float64 `json:"ground_cn2"`
	Scale       float64 `json:"scale"`
}

const (
	degPerRad = 180 / 3.141592653589793
)

// secsToDuration converts a seconds value from a JSON file to a Duration.
func secsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// SaveParams serializes p as indented JSON.
func SaveParams(w io.Writer, p Params) error {
	j := paramsJSON{
		WavelengthNM:            p.WavelengthM * 1e9,
		GroundApertureRadiusM:   p.GroundApertureRadiusM,
		HAPApertureRadiusM:      p.HAPApertureRadiusM,
		SpaceBeamWaistM:         p.SpaceBeamWaistM,
		HAPBeamWaistM:           p.HAPBeamWaistM,
		ReceiverEfficiency:      p.ReceiverEfficiency,
		ZenithOpticalDepth:      p.ZenithOpticalDepth,
		PointingJitterRad:       p.PointingJitterRad,
		FiberAttenuationDBPerKm: p.FiberAttenuationDBPerKm,
		TransmissivityThreshold: p.TransmissivityThreshold,
		MinElevationDeg:         p.MinElevationRad * degPerRad,
		ISLClearanceAltM:        p.ISLClearanceAltM,
		SatelliteAltitudeKM:     p.SatelliteAltitudeM / 1000,
		InclinationDeg:          p.InclinationDeg,
		UseJ2:                   p.UseJ2,
		HAPLatDeg:               p.HAPLatDeg,
		HAPLonDeg:               p.HAPLonDeg,
		HAPAltKM:                p.HAPAltM / 1000,
		StepIntervalS:           p.StepInterval.Seconds(),
		MemoryT2S:               p.MemoryT2.Seconds(),
		ProcessingDelayPerHopS:  p.ProcessingDelayPerHop.Seconds(),
		RequireDarkness:         p.RequireDarkness,
		TwilightDeg:             p.TwilightRad * degPerRad,
		FidelityModel:           p.FidelityModel.String(),
		RoutingEpsilon:          p.RoutingEpsilon,
	}
	if p.Turbulence != nil {
		j.Turbulence = &hvJSON{
			WindSpeedMS: p.Turbulence.WindSpeedMS,
			GroundCn2:   p.Turbulence.GroundCn2,
			Scale:       p.Turbulence.Scale,
		}
	}
	if p.Protocol.Enabled() {
		j.Protocol = &protocolJSON{
			MemoryT2S:   p.Protocol.MemoryT2.Seconds(),
			SwapSuccess: p.Protocol.SwapSuccess,
			PurifyPaths: p.Protocol.PurifyPaths,
			Seed:        p.Protocol.Seed,
		}
	}
	if p.Fault != (fault.Config{}) {
		j.Fault = &faultJSON{
			SatMTBFS:           p.Fault.SatMTBF.Seconds(),
			SatMTTRS:           p.Fault.SatMTTR.Seconds(),
			HAPMTBFS:           p.Fault.HAPMTBF.Seconds(),
			HAPMTTRS:           p.Fault.HAPMTTR.Seconds(),
			GroundMTBFS:        p.Fault.GroundMTBF.Seconds(),
			GroundMTTRS:        p.Fault.GroundMTTR.Seconds(),
			WeatherP:           p.Fault.WeatherP,
			WeatherMeanS:       p.Fault.WeatherMeanDuration.Seconds(),
			WeatherAttenuation: p.Fault.WeatherAttenuation,
			Seed:               p.Fault.Seed,
			HorizonS:           p.Fault.Horizon.Seconds(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

// LoadParams parses JSON produced by SaveParams (or hand-written with the
// same fields) and validates the result.
func LoadParams(r io.Reader) (Params, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var j paramsJSON
	if err := dec.Decode(&j); err != nil {
		return Params{}, fmt.Errorf("qntn: parse params: %w", err)
	}
	p := Params{
		WavelengthM:             j.WavelengthNM * 1e-9,
		GroundApertureRadiusM:   j.GroundApertureRadiusM,
		HAPApertureRadiusM:      j.HAPApertureRadiusM,
		SpaceBeamWaistM:         j.SpaceBeamWaistM,
		HAPBeamWaistM:           j.HAPBeamWaistM,
		ReceiverEfficiency:      j.ReceiverEfficiency,
		ZenithOpticalDepth:      j.ZenithOpticalDepth,
		PointingJitterRad:       j.PointingJitterRad,
		FiberAttenuationDBPerKm: j.FiberAttenuationDBPerKm,
		TransmissivityThreshold: j.TransmissivityThreshold,
		MinElevationRad:         j.MinElevationDeg / degPerRad,
		ISLClearanceAltM:        j.ISLClearanceAltM,
		SatelliteAltitudeM:      j.SatelliteAltitudeKM * 1000,
		InclinationDeg:          j.InclinationDeg,
		UseJ2:                   j.UseJ2,
		HAPLatDeg:               j.HAPLatDeg,
		HAPLonDeg:               j.HAPLonDeg,
		HAPAltM:                 j.HAPAltKM * 1000,
		StepInterval:            time.Duration(j.StepIntervalS * float64(time.Second)),
		MemoryT2:                time.Duration(j.MemoryT2S * float64(time.Second)),
		ProcessingDelayPerHop:   time.Duration(j.ProcessingDelayPerHopS * float64(time.Second)),
		RequireDarkness:         j.RequireDarkness,
		TwilightRad:             j.TwilightDeg / degPerRad,
		RoutingEpsilon:          j.RoutingEpsilon,
	}
	switch j.FidelityModel {
	case "", SourceAtBestSplit.String():
		p.FidelityModel = SourceAtBestSplit
	case SourceAtEndpoint.String():
		p.FidelityModel = SourceAtEndpoint
	default:
		return Params{}, fmt.Errorf("qntn: unknown fidelity model %q", j.FidelityModel)
	}
	if j.Turbulence != nil {
		p.Turbulence = &atmosphere.HufnagelValley{
			WindSpeedMS: j.Turbulence.WindSpeedMS,
			GroundCn2:   j.Turbulence.GroundCn2,
			Scale:       j.Turbulence.Scale,
		}
	}
	if j.Protocol != nil {
		p.Protocol = protocol.Config{
			MemoryT2:    secsToDuration(j.Protocol.MemoryT2S),
			SwapSuccess: j.Protocol.SwapSuccess,
			PurifyPaths: j.Protocol.PurifyPaths,
			Seed:        j.Protocol.Seed,
		}
	}
	if j.Fault != nil {
		p.Fault = fault.Config{
			SatMTBF:             secsToDuration(j.Fault.SatMTBFS),
			SatMTTR:             secsToDuration(j.Fault.SatMTTRS),
			HAPMTBF:             secsToDuration(j.Fault.HAPMTBFS),
			HAPMTTR:             secsToDuration(j.Fault.HAPMTTRS),
			GroundMTBF:          secsToDuration(j.Fault.GroundMTBFS),
			GroundMTTR:          secsToDuration(j.Fault.GroundMTTRS),
			WeatherP:            j.Fault.WeatherP,
			WeatherMeanDuration: secsToDuration(j.Fault.WeatherMeanS),
			WeatherAttenuation:  j.Fault.WeatherAttenuation,
			Seed:                j.Fault.Seed,
			Horizon:             secsToDuration(j.Fault.HorizonS),
		}
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}
