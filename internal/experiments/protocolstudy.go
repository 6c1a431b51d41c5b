package experiments

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"qntn/internal/qntn"
	"qntn/internal/quantum/protocol"
)

// ProtocolPoint reports one (architecture, memory T2, purification budget)
// cell of the entanglement-protocol study, with Enabled false for the
// seed-model baseline row the protocol cells are compared against.
type ProtocolPoint struct {
	Architecture string
	// Satellites is the constellation size (the relay count for the hybrid
	// row).
	Satellites int
	Enabled    bool
	// MemoryT2 is the swap-chain memory coherence time of the cell (zero in
	// the baseline row, where no memory model applies).
	MemoryT2 time.Duration
	// SwapSuccess and PurifyPaths echo the protocol mix of the cell.
	SwapSuccess float64
	PurifyPaths int
	// ServedPercent drops as swap chains fail; MeanFidelity moves with both
	// dephasing (down) and purification (up) — the study's tradeoff axes.
	ServedPercent float64
	MeanFidelity  float64
	MeanPathEta   float64
}

// protocolHybridRelays is the hybrid-architecture relay count the study
// samples alongside the constellation sweep. Space-ground routes rarely
// offer a vertex-disjoint alternative (one satellite bridges the LANs), so
// the hybrid mix — where HAP and satellite routes coexist and purification
// actually consumes redundant paths — is what makes the purify-budget axis
// informative.
const protocolHybridRelays = 12

// ProtocolStudy quantifies the fidelity/served tradeoff of the
// entanglement-protocol layer: for every space-ground constellation size
// plus the hybrid architecture it runs the serve experiment once with the
// protocol disabled (the paper's seed model) and once per (memory T2,
// purification budget) grid cell, all sweep rows through the parallel sweep
// engine. base carries the grid-invariant protocol knobs — swap success
// probability and draw seed; its MemoryT2 and PurifyPaths are overridden per
// cell. Deterministic for fixed inputs and worker-count invariant (the sweep
// engine's guarantee, pinned by the worker-matrix golden test). workers <= 0
// selects GOMAXPROCS.
func ProtocolStudy(p qntn.Params, cfg qntn.ServeConfig, base protocol.Config, sizes []int, t2s []time.Duration, budgets []int, workers int) ([]ProtocolPoint, error) {
	if len(sizes) == 0 || len(t2s) == 0 || len(budgets) == 0 {
		return nil, fmt.Errorf("experiments: protocol study requires sizes, T2 levels and purify budgets")
	}
	cell := func(pc qntn.Params, point ProtocolPoint) ([]ProtocolPoint, error) {
		srv, err := qntn.ServeSweep(pc, sizes, cfg, workers)
		if err != nil {
			return nil, err
		}
		rows := make([]ProtocolPoint, 0, len(sizes)+1)
		for i := range sizes {
			r := point
			r.Architecture = qntn.SpaceGround.String()
			r.Satellites = sizes[i]
			r.ServedPercent = srv[i].Result.ServedPercent
			r.MeanFidelity = srv[i].Result.MeanFidelity
			r.MeanPathEta = srv[i].Result.MeanPathEta
			rows = append(rows, r)
		}
		sc, err := qntn.NewHybrid(protocolHybridRelays, pc)
		if err != nil {
			return nil, err
		}
		hyb, err := sc.RunServe(cfg)
		if err != nil {
			return nil, err
		}
		r := point
		r.Architecture = qntn.Hybrid.String()
		r.Satellites = protocolHybridRelays
		r.ServedPercent = hyb.ServedPercent
		r.MeanFidelity = hyb.MeanFidelity
		r.MeanPathEta = hyb.MeanPathEta
		rows = append(rows, r)
		return rows, nil
	}
	pp := p
	pp.Protocol = protocol.Config{}
	rows, err := cell(pp, ProtocolPoint{})
	if err != nil {
		return nil, fmt.Errorf("experiments: protocol study baseline: %w", err)
	}
	for _, t2 := range t2s {
		for _, k := range budgets {
			pc := p
			pc.Protocol = base
			pc.Protocol.MemoryT2 = t2
			pc.Protocol.PurifyPaths = k
			if err := pc.Protocol.Validate(); err != nil {
				return nil, fmt.Errorf("experiments: protocol study cell (t2=%v, k=%d): %w", t2, k, err)
			}
			cellRows, err := cell(pc, ProtocolPoint{
				Enabled:     true,
				MemoryT2:    t2,
				SwapSuccess: pc.Protocol.SwapSuccess,
				PurifyPaths: pc.Protocol.Paths(),
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: protocol study cell (t2=%v, k=%d): %w", t2, k, err)
			}
			rows = append(rows, cellRows...)
		}
	}
	return rows, nil
}

// ProtocolCSV writes the protocol study.
func ProtocolCSV(w io.Writer, rows []ProtocolPoint) error {
	cells := make([][]string, len(rows))
	for i, r := range rows {
		proto := "off"
		if r.Enabled {
			proto = "on"
		}
		cells[i] = []string{
			r.Architecture,
			strconv.Itoa(r.Satellites),
			proto,
			strconv.FormatFloat(r.MemoryT2.Seconds(), 'f', 6, 64),
			strconv.FormatFloat(r.SwapSuccess, 'f', 4, 64),
			strconv.Itoa(r.PurifyPaths),
			strconv.FormatFloat(r.ServedPercent, 'f', 4, 64),
			strconv.FormatFloat(r.MeanFidelity, 'f', 6, 64),
			strconv.FormatFloat(r.MeanPathEta, 'f', 6, 64),
		}
	}
	return WriteCSV(w, []string{
		"architecture", "satellites", "protocol", "memory_t2_s", "swap_success",
		"purify_paths", "served_percent", "mean_fidelity", "mean_path_eta",
	}, cells)
}
