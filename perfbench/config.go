package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloadsJSON is the benchmark's own configuration: why each workload
// was chosen, the layers it loads or bypasses, the daemon's pinned query
// rate and mix, the serve workload's protocol settings, the layer-to-metric
// predictions and the pinned outputs the correctness checks compare with.
//
//go:embed workloads.json
var workloadsJSON []byte

type config struct {
	// SetupReps is how many set-ups precede a traced pass.
	SetupReps int `json:"setup_reps"`
	// GOMAXPROCS is the processor count every run pins.
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Workloads  map[string]workloadDoc    `json:"workloads"`
	Daemon     daemonConfig              `json:"daemon"`
	Pins       map[string]map[string]pin `json:"pins"`
}

// workloadDoc is the documented part of a workload entry; the serve entry
// also carries its protocol settings.
type workloadDoc struct {
	Why      string       `json:"why"`
	Protocol *protoConfig `json:"protocol,omitempty"`
	Requests int          `json:"requests_per_step,omitempty"`
	Steps    int          `json:"steps,omitempty"`
}

type protoConfig struct {
	MemoryT2    string  `json:"memory_t2"`
	SwapSuccess float64 `json:"swap_success"`
	PurifyPaths int     `json:"purify_paths"`
}

type daemonConfig struct {
	RatePerS         float64     `json:"rate_per_s"`
	Connections      int         `json:"connections"`
	RatePerHour      float64     `json:"rate_per_hour_per_site"`
	DiurnalAmplitude float64     `json:"diurnal_amplitude"`
	PeakHour         float64     `json:"peak_hour"`
	Mix              []queryKind `json:"mix"`
}

// queryKind is one class of daemon query; Share weights it in the pool.
type queryKind struct {
	Arch       string `json:"arch"`
	Satellites int    `json:"satellites,omitempty"`
	Horizon    string `json:"horizon"`
	Share      int    `json:"share"`
}

// pin is a pinned workload output for one seed variant. Coverage pins use
// the first four fields, serve pins the last two.
type pin struct {
	Steps        int     `json:"steps,omitempty"`
	CoveredSteps int     `json:"covered_steps,omitempty"`
	Intervals    int     `json:"intervals,omitempty"`
	Percent      float64 `json:"percent,omitempty"`
	Served       int     `json:"served,omitempty"`
	MeanFidelity float64 `json:"mean_fidelity,omitempty"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if c.SetupReps < 1 || c.GOMAXPROCS < 1 {
		return nil, fmt.Errorf("workloads.json: setup_reps and gomaxprocs must be positive")
	}
	return &c, nil
}
