package fault

import (
	"math/rand"
	"sort"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/runner"
)

// Span is one half-open [Start, End) downtime interval.
type Span struct {
	Start time.Duration
	End   time.Duration
}

// Contains reports whether t falls inside the span.
func (s Span) Contains(t time.Duration) bool { return s.Start <= t && t < s.End }

// Schedule holds precomputed, immutable downtime intervals: one sorted list
// per faulted node plus one region-wide weather list. Construction is a
// pure function of (Config, node IDs) — node order, worker count and query
// order never change it — and queries are lock-free binary searches, so one
// schedule safely serves every concurrent sweep worker.
type Schedule struct {
	cfg     Config
	horizon time.Duration
	down    map[string][]Span
	weather []Span
}

// NewSchedule samples the downtime of every node whose kind has an enabled
// MTBF/MTTR pair, plus the weather blackout sequence. Each platform draws
// from its own RNG stream, seeded by runner.TaskSeed over an FNV-64a hash
// of the node ID, so adding or removing nodes never perturbs the schedules
// of the others.
func NewSchedule(cfg Config, nodes []netsim.Node) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{
		cfg:     cfg,
		horizon: cfg.horizon(),
		down:    make(map[string][]Span),
	}
	for _, node := range nodes {
		var mtbf, mttr time.Duration
		switch node.Kind() {
		case netsim.Satellite:
			mtbf, mttr = cfg.SatMTBF, cfg.SatMTTR
		case netsim.HAP:
			mtbf, mttr = cfg.HAPMTBF, cfg.HAPMTTR
		case netsim.Ground:
			mtbf, mttr = cfg.GroundMTBF, cfg.GroundMTTR
		}
		if mtbf <= 0 || mttr <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(runner.TaskSeed(cfg.Seed, streamKey(node.ID()))))
		if spans := alternatingRenewal(rng, mtbf, mttr, s.horizon); len(spans) > 0 {
			s.down[node.ID()] = spans
		}
	}
	if cfg.WeatherP > 0 {
		// Mean blackout D and long-run fraction p fix the mean clear gap
		// U = D·(1−p)/p.
		d := cfg.weatherMean()
		up := time.Duration(float64(d) * (1 - cfg.WeatherP) / cfg.WeatherP)
		rng := rand.New(rand.NewSource(runner.TaskSeed(cfg.Seed, streamKey("\x00weather"))))
		s.weather = alternatingRenewal(rng, up, d, s.horizon)
	}
	return s, nil
}

// streamKey hashes an identifier into the task index of the per-platform
// seed stream. runner.FNV64a is bit-for-bit hash/fnv's 64-bit FNV-1a, so
// schedules sampled before the switch replay identically.
func streamKey(id string) uint64 {
	return runner.FNV64a(id)
}

// alternatingRenewal samples [down] intervals of an alternating renewal
// process starting in the up state: exponential up times with the given
// mean, exponential down times with mean meanDown, truncated at horizon.
func alternatingRenewal(rng *rand.Rand, meanUp, meanDown, horizon time.Duration) []Span {
	var spans []Span
	at := sampleExp(rng, meanUp)
	for at < horizon {
		down := sampleExp(rng, meanDown)
		end := at + down
		if end > horizon {
			end = horizon
		}
		spans = append(spans, Span{Start: at, End: end})
		at += down + sampleExp(rng, meanUp)
	}
	return spans
}

// sampleExp draws an exponential duration with the given mean, clamped to
// at least 1 ns so the renewal process always advances.
func sampleExp(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d <= 0 {
		return 1
	}
	return d
}

// SpanAt reports whether t falls inside any of the sorted spans (a
// schedule's DownSpans or WeatherSpans list).
func SpanAt(spans []Span, t time.Duration) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].End > t })
	return i < len(spans) && spans[i].Start <= t
}

// Down reports whether the named node is failed at instant t. Unknown IDs
// and instants past the horizon are operational.
func (s *Schedule) Down(id string, t time.Duration) bool {
	return SpanAt(s.down[id], t)
}

// Weather reports whether a weather blackout covers instant t.
func (s *Schedule) Weather(t time.Duration) bool {
	return SpanAt(s.weather, t)
}

// DownSpans returns the downtime intervals of the named node (nil when the
// node never fails). The slice is shared — callers must not mutate it.
func (s *Schedule) DownSpans(id string) []Span { return s.down[id] }

// WeatherSpans returns the weather blackout intervals.
func (s *Schedule) WeatherSpans() []Span { return s.weather }

// Horizon returns the schedule length.
func (s *Schedule) Horizon() time.Duration { return s.horizon }

// Config returns the configuration the schedule was built from.
func (s *Schedule) Config() Config { return s.cfg }

// TotalDown sums the lengths of the given spans — the observed downtime a
// test compares against the configured MTBF/MTTR ratio.
func TotalDown(spans []Span) time.Duration {
	var total time.Duration
	for _, sp := range spans {
		total += sp.End - sp.Start
	}
	return total
}
