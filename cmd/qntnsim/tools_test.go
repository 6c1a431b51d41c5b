package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qntn/internal/trace"
)

// runRow runs one qntnsim subcommand with the given arguments after its
// name and returns its output.
func runRow(args ...string) (string, error) {
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

// checkToolGolden compares got with testdata/<name>, byte for byte.
func checkToolGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from its golden\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestToolGoldens pins the tool-chain rows to the output of the standalone
// constellation, coverage and linkbudget binaries they replace, byte for
// byte, including the movement-sheet round trip through -out and -sheets.
func TestToolGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"linkbudget.golden", []string{"linkbudget"}},
		{"linkbudget_turbulence.golden", []string{"linkbudget", "-turbulence"}},
		{"constellation_list.golden", []string{"constellation", "-list"}},
		{"constellation_walker_list.golden", []string{"constellation", "-walker", "12/3/1", "-list"}},
		{"coverage_air.golden", []string{"coverage", "-arch", "air", "-duration", "30m"}},
		{"coverage_space_detail.golden", []string{"coverage", "-arch", "space", "-n", "108", "-duration", "2h", "-intervals", "-pairs", "-timeline"}},
		{"coverage_hybrid.golden", []string{"coverage", "-arch", "hybrid", "-n", "6", "-duration", "30m"}},
	} {
		out, err := runRow(tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		checkToolGolden(t, tc.golden, out)
	}

	sheets := filepath.Join(t.TempDir(), "sheets.csv")
	out, err := runRow("constellation", "-n", "6", "-duration", "10m", "-out", sheets)
	if err != nil {
		t.Fatal(err)
	}
	checkToolGolden(t, "constellation_out.golden", strings.ReplaceAll(out, sheets, "sheets.csv"))
	csv, err := os.ReadFile(sheets)
	if err != nil {
		t.Fatal(err)
	}
	checkToolGolden(t, "sheets.golden.csv", string(csv))
	out, err = runRow("coverage", "-arch", "space", "-sheets", sheets, "-duration", "10m")
	if err != nil {
		t.Fatal(err)
	}
	checkToolGolden(t, "coverage_sheets.golden", out)
}

func TestRunRejectsTrailingArguments(t *testing.T) {
	for _, args := range [][]string{
		{"params", "-bogus", "extra"},
		{"fig6", "-quick"},
		{"fig5", "extra"},
		{"all", "-quick"},
	} {
		out, err := runRow(args...)
		if err == nil {
			t.Fatalf("%v accepted:\n%s", args, out)
		}
		if !strings.Contains(err.Error(), args[1]) {
			t.Fatalf("%v: error %q does not name %q", args, err, args[1])
		}
	}
}

func TestConstellationList(t *testing.T) {
	out, err := runRow("constellation", "-list", "-n", "12")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SAT-001") || !strings.Contains(out, "SAT-012") {
		t.Fatalf("list output:\n%s", out)
	}
	if strings.Contains(out, "SAT-013") {
		t.Fatal("list printed more satellites than requested")
	}
}

func TestConstellationExportsSheets(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sheets.csv")
	status, err := runRow("constellation", "-n", "6", "-duration", "10m", "-interval", "30s", "-out", out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "wrote 6 sheets") {
		t.Fatalf("status output:\n%s", status)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sheets, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sheets) != 6 || len(sheets[0].Samples) != 21 {
		t.Fatalf("exported %d sheets, %d samples", len(sheets), len(sheets[0].Samples))
	}
}

func TestConstellationStdoutCSV(t *testing.T) {
	out, err := runRow("constellation", "-n", "6", "-duration", "1m", "-interval", "30s")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "name,t_seconds") {
		t.Fatalf("stdout csv missing header:\n%.80s", out)
	}
}

func TestConstellationCustomWalker(t *testing.T) {
	out, err := runRow("constellation", "-walker", "12/3/1", "-list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SAT-012") {
		t.Fatalf("walker list output:\n%s", out)
	}
	if _, err := runRow("constellation", "-walker", "nonsense"); err == nil {
		t.Fatal("bad walker spec accepted")
	}
	if _, err := runRow("constellation", "-walker", "13/3/1"); err == nil {
		t.Fatal("indivisible walker accepted")
	}
}

func TestConstellationRejectsBadCount(t *testing.T) {
	if _, err := runRow("constellation", "-n", "7"); err == nil {
		t.Fatal("n=7 accepted")
	}
}

func TestCoverageAir(t *testing.T) {
	out, err := runRow("coverage", "-arch", "air", "-duration", "30m")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "air-ground") || !strings.Contains(out, "100.00%") {
		t.Fatalf("air coverage output:\n%s", out)
	}
}

func TestCoverageSpace(t *testing.T) {
	out, err := runRow("coverage", "-arch", "space", "-n", "108", "-duration", "1h", "-intervals")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "space-ground") || !strings.Contains(out, "interval") {
		t.Fatalf("space coverage output:\n%s", out)
	}
}

func TestCoverageHybrid(t *testing.T) {
	out, err := runRow("coverage", "-arch", "hybrid", "-n", "6", "-duration", "30m")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hybrid") {
		t.Fatalf("hybrid output:\n%s", out)
	}
}

func TestCoverageFromSheets(t *testing.T) {
	sheets := filepath.Join(t.TempDir(), "s.csv")
	if _, err := runRow("constellation", "-n", "6", "-duration", "30m", "-out", sheets); err != nil {
		t.Fatal(err)
	}
	out, err := runRow("coverage", "-arch", "space", "-sheets", sheets, "-duration", "30m")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "relays:         6") {
		t.Fatalf("sheet replay output:\n%s", out)
	}
	// The sheets fix the architecture and the satellite count.
	for _, args := range [][]string{
		{"-arch", "air", "-sheets", sheets},
		{"-arch", "hybrid", "-sheets", sheets},
		{"-arch", "space", "-n", "6", "-sheets", sheets},
		{"-arch", "space", "-n", "108", "-sheets", sheets},
	} {
		if out, err := runRow(append([]string{"coverage", "-duration", "30m"}, args...)...); err == nil {
			t.Fatalf("coverage %v accepted:\n%s", args, out)
		}
	}
}

func TestCoverageRejectsBadArch(t *testing.T) {
	if _, err := runRow("coverage", "-arch", "submarine"); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if _, err := runRow("coverage", "-arch", "space", "-sheets", "/nonexistent.csv"); err == nil {
		t.Fatal("missing sheet file accepted")
	}
}

func TestCoverageTimeline(t *testing.T) {
	out, err := runRow("coverage", "-arch", "space", "-n", "108", "-duration", "2h", "-timeline")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "timeline") {
		t.Fatalf("timeline missing:\n%s", out)
	}
	// A 2h space window has both covered and uncovered cells.
	if !strings.Contains(out, "█") && !strings.Contains(out, "▒") {
		t.Fatal("no covered cells rendered")
	}
	if !strings.Contains(out, "·") {
		t.Fatal("no uncovered cells rendered")
	}
}

func TestLinkbudgetClear(t *testing.T) {
	out, err := runRow("linkbudget")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"satellite downlink", "HAP downlink", "TTU", "EPB", "ORNL", "fidelity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("linkbudget output missing %q:\n%s", want, out)
		}
	}
	// The calibrated budget must show usable links above ~25° and the
	// threshold binding below.
	if !strings.Contains(out, "true") || !strings.Contains(out, "false") {
		t.Fatal("expected both usable and unusable elevations in the table")
	}
}

func TestLinkbudgetTurbulent(t *testing.T) {
	clear, err := runRow("linkbudget")
	if err != nil {
		t.Fatal(err)
	}
	turb, err := runRow("linkbudget", "-turbulence")
	if err != nil {
		t.Fatal(err)
	}
	if clear == turb {
		t.Fatal("turbulence flag had no effect")
	}
}

func TestLinkbudgetRejectsBadFlag(t *testing.T) {
	if _, err := runRow("linkbudget", "-nope"); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
