package experiments

import (
	"context"

	"qntn/internal/netsim"
	"qntn/internal/qntn"
	"qntn/internal/routing"
	"qntn/internal/runner"
	"qntn/internal/stats"
)

// MultipathRow reports redundancy statistics for one path budget.
type MultipathRow struct {
	// Paths is the disjoint-path budget k.
	Paths int
	// MeanPathsFound is the average number of edge-disjoint paths
	// actually available per served request.
	MeanPathsFound float64
	// MeanSuccessProbability is the average probability that at least
	// one attempt delivers a pair, treating each path's end-to-end
	// transmissivity as its success probability.
	MeanSuccessProbability float64
}

// ExtensionMultipathStudy measures what path redundancy buys on the hybrid
// topology (HAP + constellation, the only QNTN variant with genuine route
// diversity): for each request the k best edge-disjoint paths are extracted
// and the combined delivery probability computed. k = 1 is the paper's
// single-path routing.
//
// The request batches are drawn sequentially up front (the workload RNG is a
// serial stream), then the per-step disjoint path extraction — the expensive
// part — fans out over the pool; per-step sample lists are concatenated in
// step order, so the result is identical for any worker count. workers <= 0
// selects GOMAXPROCS.
func ExtensionMultipathStudy(p qntn.Params, nSats int, cfg qntn.ServeConfig, maxPaths, workers int) ([]MultipathRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc, err := qntn.NewHybrid(nSats, p)
	if err != nil {
		return nil, err
	}
	times := cfg.SampleTimes(p)

	wl, err := qntn.NewWorkload(sc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	batches := make([][]netsim.Request, cfg.Steps)
	for step := range batches {
		batches[step] = wl.Batch(cfg.RequestsPerStep)
	}

	// Collect per-request disjoint path sets once, then score every
	// budget against them.
	type sample struct {
		etas []float64 // per-path end-to-end transmissivities, best first
	}
	perStep := make([][]sample, cfg.Steps)
	err = runner.Map(context.Background(), cfg.Steps, workers, func(_ context.Context, step int) error {
		g, err := sc.Graph(times[step])
		if err != nil {
			return err
		}
		var ds routing.DisjointScratch
		for _, req := range batches[step] {
			paths, err := ds.EdgeDisjoint(g, req.Src, req.Dst, maxPaths)
			if err != nil {
				return err
			}
			if len(paths) == 0 {
				continue
			}
			s := sample{}
			for _, path := range paths {
				eta, err := g.PathEta(path)
				if err != nil {
					return err
				}
				s.etas = append(s.etas, eta)
			}
			perStep[step] = append(perStep[step], s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var samples []sample
	for _, ss := range perStep {
		samples = append(samples, ss...)
	}

	rows := make([]MultipathRow, 0, maxPaths)
	for k := 1; k <= maxPaths; k++ {
		var found, success []float64
		for _, s := range samples {
			n := k
			if n > len(s.etas) {
				n = len(s.etas)
			}
			found = append(found, float64(n))
			failAll := 1.0
			for _, eta := range s.etas[:n] {
				failAll *= 1 - eta
			}
			success = append(success, 1-failAll)
		}
		rows = append(rows, MultipathRow{
			Paths:                  k,
			MeanPathsFound:         stats.Mean(found),
			MeanSuccessProbability: stats.Mean(success),
		})
	}
	return rows, nil
}
