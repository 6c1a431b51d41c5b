package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/qntn"
	"qntn/internal/routing"
	"qntn/internal/stats"
)

// multipathStudyReference is ExtensionMultipathStudy as it was before the
// study moved to DisjointScratch.EdgeDisjoint: steps in order, one request
// at a time, and clone-and-delete extraction — BestTransmissivityPath on a
// copy of the snapshot, then RemoveEdge on every edge of the path found.
func multipathStudyReference(t *testing.T, p qntn.Params, nSats int, cfg qntn.ServeConfig, maxPaths int) []MultipathRow {
	t.Helper()
	sc, err := qntn.NewHybrid(nSats, p)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := qntn.NewWorkload(sc, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]netsim.Request, cfg.Steps)
	for step := range batches {
		batches[step] = wl.Batch(cfg.RequestsPerStep)
	}
	var samples [][]float64
	for step, batch := range batches {
		g, err := sc.Graph(time.Duration(step) * (cfg.Horizon / time.Duration(cfg.Steps)))
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range batch {
			work := g.Clone()
			var etas []float64
			for len(etas) < maxPaths {
				path, _, err := routing.BestTransmissivityPath(work, req.Src, req.Dst)
				if err != nil {
					break
				}
				eta, err := g.PathEta(path)
				if err != nil {
					t.Fatal(err)
				}
				etas = append(etas, eta)
				for i := 0; i+1 < len(path); i++ {
					work.RemoveEdge(path[i], path[i+1])
				}
			}
			if len(etas) > 0 {
				samples = append(samples, etas)
			}
		}
	}
	var rows []MultipathRow
	for k := 1; k <= maxPaths; k++ {
		var found, success []float64
		for _, etas := range samples {
			n := min(k, len(etas))
			found = append(found, float64(n))
			failAll := 1.0
			for _, eta := range etas[:n] {
				failAll *= 1 - eta
			}
			success = append(success, 1-failAll)
		}
		rows = append(rows, MultipathRow{Paths: k, MeanPathsFound: stats.Mean(found), MeanSuccessProbability: stats.Mean(success)})
	}
	return rows
}

// TestMultipathStudyMatchesReference pins the study's rows, bit for bit, to
// the clone-and-delete reference at every golden worker count.
func TestMultipathStudyMatchesReference(t *testing.T) {
	cfg := qntn.ServeConfig{RequestsPerStep: 10, Steps: 8, Horizon: 24 * time.Hour, Seed: 4}
	p := qntn.DefaultParams()
	want := multipathStudyReference(t, p, 36, cfg, 4)
	if want[3].MeanPathsFound <= want[0].MeanPathsFound {
		t.Fatalf("reference finds no redundant routes: %+v", want)
	}
	for _, workers := range goldenWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := ExtensionMultipathStudy(p, 36, cfg, 4, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rows %+v, reference %+v", got, want)
			}
		})
	}
}
