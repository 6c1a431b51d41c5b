package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"qntn/internal/qntn"
)

func degradationInputs() (qntn.Params, qntn.ServeConfig, time.Duration) {
	p := qntn.DefaultParams()
	p.Turbulence = nil
	p.StepInterval = 5 * time.Minute
	cfg := qntn.ServeConfig{RequestsPerStep: 5, Steps: 4, Horizon: 2 * time.Hour, Seed: 3}
	return p, cfg, 2 * time.Hour
}

func TestDegradationStudySmoke(t *testing.T) {
	p, cfg, window := degradationInputs()
	sizes := []int{6}
	levels := []float64{0, 0.5}

	rows, err := DegradationStudy(p, cfg, window, sizes, levels, 2)
	if err != nil {
		t.Fatal(err)
	}
	// (1 size + air-ground) × 2 levels.
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.CoveragePercent < 0 || r.CoveragePercent > 100 || r.ServedPercent < 0 || r.ServedPercent > 100 {
			t.Fatalf("percentages out of range: %+v", r)
		}
	}
	// Level 0 must reproduce the fault-free baseline experiments exactly.
	sc, err := qntn.NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := sc.Coverage(window)
	if err != nil {
		t.Fatal(err)
	}
	base := rows[1] // air-ground row at u=0
	if base.Architecture != qntn.AirGround.String() || base.Unavailability != 0 {
		t.Fatalf("row layout changed: %+v", base)
	}
	if base.CoveragePercent != cov.Percent() {
		t.Errorf("u=0 air-ground coverage %.4f%% != baseline %.4f%%", base.CoveragePercent, cov.Percent())
	}
	// Heavy faults must degrade the air-ground architecture (it is a single
	// platform; u=0.5 halves its availability in expectation).
	deg := rows[3]
	if deg.Unavailability != 0.5 || deg.Architecture != qntn.AirGround.String() {
		t.Fatalf("row layout changed: %+v", deg)
	}
	if deg.CoveragePercent >= base.CoveragePercent {
		t.Errorf("u=0.5 coverage %.2f%% did not degrade from %.2f%%", deg.CoveragePercent, base.CoveragePercent)
	}
}

func TestDegradationStudyWorkerCountInvariance(t *testing.T) {
	p, cfg, window := degradationInputs()
	sizes := []int{6, 12}
	levels := []float64{0.2}

	a, err := DegradationStudy(p, cfg, window, sizes, levels, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DegradationStudy(p, cfg, window, sizes, levels, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("degradation study diverged between 1 and 8 workers")
	}
}

func TestDegradationStudyRejectsEmptyAxes(t *testing.T) {
	p, cfg, window := degradationInputs()
	if _, err := DegradationStudy(p, cfg, window, nil, []float64{0}, 1); err == nil {
		t.Error("empty sizes accepted")
	}
	if _, err := DegradationStudy(p, cfg, window, []int{6}, nil, 1); err == nil {
		t.Error("empty levels accepted")
	}
}

func TestDegradationCSV(t *testing.T) {
	rows := []DegradationPoint{
		{Architecture: "space-ground", Satellites: 6, Unavailability: 0.1,
			CoveragePercent: 42.5, Intervals: 7, ServedPercent: 33.25, MeanFidelity: 0.91},
	}
	var buf bytes.Buffer
	if err := DegradationCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d CSV lines, want 2", len(lines))
	}
	if lines[0] != "architecture,satellites,unavailability,coverage_percent,intervals,served_percent,mean_fidelity" {
		t.Errorf("header %q", lines[0])
	}
	if lines[1] != "space-ground,6,0.1000,42.5000,7,33.2500,0.910000" {
		t.Errorf("row %q", lines[1])
	}
}

// TestDegradationStudyFaultsPastOneDay: the study's fault schedule spans
// the whole window, so a 26 h run still sees outages in its last two hours.
// The air-ground row covers less of those two hours than a schedule that
// ended at 24 h would leave it: all of them.
func TestDegradationStudyFaultsPastOneDay(t *testing.T) {
	p, cfg, _ := degradationInputs()
	covered := func(window time.Duration) time.Duration {
		t.Helper()
		rows, err := DegradationStudy(p, cfg, window, []int{6}, []float64{0.4}, 2)
		if err != nil {
			t.Fatal(err)
		}
		hap := rows[1]
		if hap.Architecture != qntn.AirGround.String() {
			t.Fatalf("row layout changed: %+v", hap)
		}
		return time.Duration(hap.CoveragePercent / 100 * float64(window))
	}
	extra := covered(26*time.Hour) - covered(24*time.Hour)
	if extra > 2*time.Hour-p.StepInterval {
		t.Errorf("air-ground covered %v of hours 24-26 under u=0.4, want outages there", extra)
	}
}
