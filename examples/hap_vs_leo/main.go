// hap_vs_leo reproduces the paper's bottom line (Table III) at example
// scale: the space-ground architecture with 108 satellites versus the
// air-ground HAP, compared on coverage, served requests, and entanglement
// fidelity over a compressed horizon so the example finishes in seconds.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"qntn/internal/experiments"
	"qntn/internal/qntn"
)

func main() {
	params := qntn.DefaultParams()
	cfg := qntn.ServeConfig{
		RequestsPerStep: 50,
		Steps:           20,
		Horizon:         24 * time.Hour,
		Seed:            1,
	}
	// 3-hour coverage window keeps the example fast; cmd/qntnsim table3
	// runs the full day.
	rows, err := experiments.Table3(params, cfg, 3*time.Hour, 0)
	if err != nil {
		log.Fatal(err)
	}

	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			r.Architecture,
			experiments.FormatPercent(r.CoveragePercent),
			experiments.FormatPercent(r.ServedPercent),
			fmt.Sprintf("%.4f", r.MeanFidelity),
		}
	}
	if err := experiments.RenderTable(os.Stdout, "QNTN architecture comparison (example scale)",
		[]string{"architecture", "coverage", "served", "fidelity"}, cells); err != nil {
		log.Fatal(err)
	}

	space, air := rows[0], rows[1]
	fmt.Printf("\nair-ground improves coverage by %.2f points, request serving by %.2f points,\n",
		air.CoveragePercent-space.CoveragePercent, air.ServedPercent-space.ServedPercent)
	fmt.Printf("and fidelity by %.3f — at the cost of HAP endurance and weather sensitivity\n",
		air.MeanFidelity-space.MeanFidelity)
	fmt.Println("(run `qntnsim ablations` for the turbulence sensitivity study).")
}
