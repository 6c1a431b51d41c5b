package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qntn/internal/qntn"
	"qntn/internal/quantum/protocol"
)

// update regenerates the golden CSVs instead of comparing against them:
//
//	go test ./internal/experiments -run Golden -args -update
var update = flag.Bool("update", false, "rewrite golden CSV files")

// goldenParams/goldenServeConfig pin a reduced, fixed-seed configuration so
// the goldens stay cheap to regenerate while exercising the full
// experiment → CSV path.
func goldenParams() qntn.Params {
	return qntn.DefaultParams()
}

func goldenServeConfig() qntn.ServeConfig {
	return qntn.ServeConfig{RequestsPerStep: 10, Steps: 10, Seed: 1}
}

// checkGolden compares got against testdata/golden/<name>, byte for byte,
// rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -args -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from golden output\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// goldenWorkerCounts are the parallelism levels every golden must match at
// — the byte-identical determinism claim of the sweep engine, checked at
// the CSV layer the paper artifacts are produced from.
var goldenWorkerCounts = []int{1, 2, 8}

func TestGoldenFig5CSV(t *testing.T) {
	points, err := Fig5(0.05)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig5CSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5.csv", buf.Bytes())
}

func TestGoldenFig6CSV(t *testing.T) {
	p := goldenParams()
	for _, workers := range goldenWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			points, err := Fig6(p, 90*time.Minute, workers)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Fig6CSV(&buf, points); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "fig6.csv", buf.Bytes())
		})
	}
}

func TestGoldenFig78CSV(t *testing.T) {
	p := goldenParams()
	cfg := goldenServeConfig()
	for _, workers := range goldenWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			points, err := Fig7And8(p, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Fig78CSV(&buf, points); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "fig78.csv", buf.Bytes())
		})
	}
}

func TestGoldenDegradationCSV(t *testing.T) {
	p := goldenParams()
	cfg := goldenServeConfig()
	sizes := []int{6, 12}
	levels := []float64{0, 0.25}
	for _, workers := range goldenWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rows, err := DegradationStudy(p, cfg, 90*time.Minute, sizes, levels, workers)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := DegradationCSV(&buf, rows); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "degrade.csv", buf.Bytes())
		})
	}
}

func TestGoldenProtocolCSV(t *testing.T) {
	p := goldenParams()
	cfg := goldenServeConfig()
	base := protocol.Config{SwapSuccess: 0.85, Seed: 5}
	sizes := []int{6, 24}
	t2s := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
	budgets := []int{1, 3}
	for _, workers := range goldenWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rows, err := ProtocolStudy(p, cfg, base, sizes, t2s, budgets, workers)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ProtocolCSV(&buf, rows); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "protocol.csv", buf.Bytes())
		})
	}
}

func TestGoldenTable3CSV(t *testing.T) {
	p := goldenParams()
	cfg := goldenServeConfig()
	for _, workers := range goldenWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rows, err := Table3(p, cfg, time.Hour, workers)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Table3CSV(&buf, rows); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "table3.csv", buf.Bytes())
		})
	}
}
