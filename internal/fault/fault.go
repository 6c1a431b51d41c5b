// Package fault injects deterministic platform outages and weather
// blackouts into a simulated network. The paper's evaluation assumes ideal
// platforms — satellites never fail, the HAP hovers indefinitely, FSO links
// exist whenever geometry allows — yet its architecture comparison hinges
// on availability. This package makes degraded operation a first-class,
// reproducible experiment input:
//
//   - Platform outages follow an alternating-renewal process (exponential
//     up times with mean MTBF, exponential repair times with mean MTTR),
//     sampled per platform from a seed derived with runner.TaskSeed so the
//     schedule is a pure function of (Config, node IDs) — independent of
//     evaluation order, worker count, and wall-clock time.
//   - Weather blackouts are region-wide intervals during which every
//     ground↔relay FSO link is attenuated (or severed when the attenuation
//     factor is zero); fiber and space-space links are unaffected.
//
// Schedules are precomputed once into immutable sorted interval lists, so
// concurrent sweep workers query them lock-free. The package holds the
// schedule only: the simulator's link evaluator applies it (internal/qntn's
// step evaluator gates each pair on the per-node down bits and the weather
// bit it resolves once per instant).
package fault

import (
	"fmt"
	"time"
)

// DefaultHorizon is the schedule length when Config.Horizon is zero: the
// paper's one-day evaluation window. Instants past the horizon report
// everything operational.
const DefaultHorizon = 24 * time.Hour

// DefaultWeatherMean is the mean weather-blackout duration when
// Config.WeatherMeanDuration is zero (a passing storm cell, not a climate).
const DefaultWeatherMean = 30 * time.Minute

// Config describes one deterministic fault environment. The zero value
// disables every fault class.
type Config struct {
	// SatMTBF/SatMTTR are the mean time between failures and mean time to
	// repair of satellites. Both must be positive to enable satellite
	// outages; both zero disables them.
	SatMTBF time.Duration
	SatMTTR time.Duration
	// HAPMTBF/HAPMTTR model HAP station-keeping gaps (drift, gusts,
	// maintenance descents).
	HAPMTBF time.Duration
	HAPMTTR time.Duration
	// GroundMTBF/GroundMTTR model ground-station downtime.
	GroundMTBF time.Duration
	GroundMTTR time.Duration

	// WeatherP is the long-run fraction of time the region is under a
	// weather blackout, in [0,1). Zero disables weather.
	WeatherP float64
	// WeatherMeanDuration is the mean length of one blackout
	// (DefaultWeatherMean when zero).
	WeatherMeanDuration time.Duration
	// WeatherAttenuation multiplies the transmissivity of every
	// ground↔relay FSO link during a blackout, in [0,1]. Zero (the
	// default) severs those links outright; after attenuation the link is
	// re-gated against the model's transmissivity threshold.
	WeatherAttenuation float64

	// Seed selects the deterministic schedule. Schedules with equal
	// (Config, node IDs) are identical.
	Seed int64
	// Horizon is the schedule length (DefaultHorizon when zero). Queries
	// past the horizon report everything operational.
	Horizon time.Duration
}

// Enabled reports whether any fault class is active. A disabled config
// leaves the simulation byte-identical to the fault-free baseline (callers
// build no schedule, so no link ever reaches the fault gate).
func (c Config) Enabled() bool {
	return (c.SatMTBF > 0 && c.SatMTTR > 0) ||
		(c.HAPMTBF > 0 && c.HAPMTTR > 0) ||
		(c.GroundMTBF > 0 && c.GroundMTTR > 0) ||
		c.WeatherP > 0
}

// Validate reports whether the configuration is self-consistent: MTBF/MTTR
// come in pairs (both zero or both positive), the weather fraction lives in
// [0,1), and the attenuation in [0,1].
func (c Config) Validate() error {
	pairs := []struct {
		name       string
		mtbf, mttr time.Duration
	}{
		{"satellite", c.SatMTBF, c.SatMTTR},
		{"HAP", c.HAPMTBF, c.HAPMTTR},
		{"ground", c.GroundMTBF, c.GroundMTTR},
	}
	for _, p := range pairs {
		if p.mtbf < 0 || p.mttr < 0 {
			return fmt.Errorf("fault: negative %s MTBF/MTTR (%v, %v)", p.name, p.mtbf, p.mttr)
		}
		if (p.mtbf > 0) != (p.mttr > 0) {
			return fmt.Errorf("fault: %s MTBF and MTTR must both be set or both be zero (%v, %v)", p.name, p.mtbf, p.mttr)
		}
	}
	switch {
	case c.WeatherP < 0 || c.WeatherP >= 1:
		return fmt.Errorf("fault: weather fraction %g outside [0,1)", c.WeatherP)
	case c.WeatherAttenuation < 0 || c.WeatherAttenuation > 1:
		return fmt.Errorf("fault: weather attenuation %g outside [0,1]", c.WeatherAttenuation)
	case c.WeatherMeanDuration < 0:
		return fmt.Errorf("fault: negative weather mean duration %v", c.WeatherMeanDuration)
	case c.Horizon < 0:
		return fmt.Errorf("fault: negative horizon %v", c.Horizon)
	}
	return nil
}

// horizon returns the effective schedule length.
func (c Config) horizon() time.Duration {
	if c.Horizon <= 0 {
		return DefaultHorizon
	}
	return c.Horizon
}

// weatherMean returns the effective mean blackout duration.
func (c Config) weatherMean() time.Duration {
	if c.WeatherMeanDuration <= 0 {
		return DefaultWeatherMean
	}
	return c.WeatherMeanDuration
}

// AtIntensity maps a scalar fault intensity u in [0, 1) onto a canonical
// degraded environment — the x-axis of the degradation study. u is the
// long-run unavailability of every relay platform: repairs take a fixed 10
// minutes, so MTBF = MTTR·(1−u)/u, and the region additionally spends u/2
// of the time under a link-severing weather blackout. u <= 0 returns a
// disabled config (only the seed set); u is clamped to 0.95 above.
func AtIntensity(u float64, seed int64) Config {
	if u <= 0 {
		return Config{Seed: seed}
	}
	if u > 0.95 {
		u = 0.95
	}
	const mttr = 10 * time.Minute
	mtbf := time.Duration(float64(mttr) * (1 - u) / u)
	return Config{
		SatMTBF:  mtbf,
		SatMTTR:  mttr,
		HAPMTBF:  mtbf,
		HAPMTTR:  mttr,
		WeatherP: u / 2,
		Seed:     seed,
	}
}

// HAPUnavailability returns a HAP-only config whose long-run unavailability
// is u in [0, 1): repairs take mttr on average, so MTBF = MTTR·(1−u)/u, and
// the schedule covers horizon. Satellites, ground stations and the weather
// stay fault-free. u <= 0 returns a disabled config (only the seed set).
func HAPUnavailability(u float64, mttr, horizon time.Duration, seed int64) Config {
	if u <= 0 {
		return Config{Seed: seed}
	}
	return Config{
		HAPMTBF: time.Duration(float64(mttr) * (1 - u) / u),
		HAPMTTR: mttr,
		Seed:    seed,
		Horizon: horizon,
	}
}
