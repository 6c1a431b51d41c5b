package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/telemetry"
)

func TestRunFig5(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"fig5"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig. 5", "transmissivity", "0.90"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable3Quick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "table3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table III", "space-ground", "air-ground", "100.00%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig6Quick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "fig6"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "satellites") {
		t.Fatalf("fig6 output:\n%s", b.String())
	}
}

func TestRunPurify(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"purify"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "BBPSSW") {
		t.Fatalf("purify output:\n%s", b.String())
	}
}

func TestRunLatencyQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "latency"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "latency") || !strings.Contains(out, "ideal") {
		t.Fatalf("latency output:\n%s", out)
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-csvdir", dir, "fig5"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "transmissivity,fidelity_root") {
		t.Fatalf("csv content: %q", string(data[:60]))
	}
	// 101 data rows + header.
	if lines := strings.Count(string(data), "\n"); lines != 102 {
		t.Fatalf("csv line count %d", lines)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{}, &b); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if err := run([]string{"frobnicate"}, &b); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"-bogusflag", "fig5"}, &b); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunQKD(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"qkd"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "BBM92") || !strings.Contains(out, "air-ground") {
		t.Fatalf("qkd output:\n%s", out)
	}
}

func TestRunNightQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "night"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "night only") {
		t.Fatalf("night output:\n%s", b.String())
	}
}

func TestRunParamsDumpAndLoad(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"params"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\"wavelength_nm\": 532") {
		t.Fatalf("params dump:\n%s", b.String())
	}
	// Round trip through -params.
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-params", path, "fig5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 5") {
		t.Fatal("fig5 with loaded params failed")
	}
	if err := run([]string{"-params", "/does/not/exist.json", "fig5"}, &out); err == nil {
		t.Fatal("missing params file accepted")
	}
}

func TestRunStatewideQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "statewide"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Memphis") || !strings.Contains(out, "space-ground (108 sats)") {
		t.Fatalf("statewide output:\n%s", out)
	}
}

func TestRunOutageQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "outage"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "HAP unavailability") {
		t.Fatalf("outage output:\n%s", b.String())
	}
}

func TestRunDegradeQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "degrade"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"graceful degradation", "unavailability", "space-ground", "air-ground", "20%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("degrade output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDegradeCSV(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-quick", "-csvdir", dir, "degrade"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "degrade.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "architecture,satellites,unavailability,") {
		t.Fatalf("degrade.csv header wrong:\n%s", data)
	}
}

// TestRunFaultFlags drives a whole experiment through the fault flags: the
// faulted run must succeed and differ from the fault-free baseline, and
// the same flags must reproduce the same output.
func TestRunFaultFlags(t *testing.T) {
	var clean, faulted, again strings.Builder
	if err := run([]string{"-quick", "table3"}, &clean); err != nil {
		t.Fatal(err)
	}
	faultArgs := []string{"-quick", "-fault-mtbf", "1h", "-fault-mttr", "30m", "-weather-p", "0.3", "-fault-seed", "5", "table3"}
	if err := run(faultArgs, &faulted); err != nil {
		t.Fatal(err)
	}
	if clean.String() == faulted.String() {
		t.Fatal("fault flags changed nothing about table3")
	}
	if err := run(faultArgs, &again); err != nil {
		t.Fatal(err)
	}
	if faulted.String() != again.String() {
		t.Fatal("fault-injected run is not reproducible")
	}
}

// TestRunFaultFlagsCoverTheDuration: the arrivals admission samples its
// -duration horizon itself, so the params the command builds from the
// fault flags carry a schedule reaching past it, and a faulted one-day
// RunArrivals on them runs instead of being refused. The coverage row
// lengthens the schedule for its own -duration.
func TestRunFaultFlagsCoverTheDuration(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fault-mtbf", "2h", "params"}, &b); err != nil {
		t.Fatal(err)
	}
	p, err := qntn.LoadParams(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Fault.Horizon <= orbit.Day {
		t.Fatalf("fault horizon %v does not reach past the one-day -duration", p.Fault.Horizon)
	}
	sc, err := qntn.NewAirGround(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunArrivals(qntn.ArrivalConfig{RatePerHour: 20, Horizon: orbit.Day, Seed: 1}); err != nil {
		t.Fatalf("faulted one-day arrivals: %v", err)
	}
	b.Reset()
	if err := run([]string{"-fault-mtbf", "2h", "coverage", "-arch", "air", "-duration", "26h"}, &b); err != nil {
		t.Fatalf("faulted 26h coverage: %v", err)
	}
}

func TestRunRejectsBadFaultFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-weather-p", "1.5", "table3"}, &b); err == nil {
		t.Fatal("out-of-range -weather-p accepted")
	}
	if err := run([]string{"-fault-mtbf", "-1h", "-quick", "table3"}, &b); err == nil {
		t.Fatal("negative -fault-mtbf accepted")
	}
}

func TestRunMultipathQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "multipath"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "path budget") {
		t.Fatalf("multipath output:\n%s", b.String())
	}
}

func TestRunThroughputQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "throughput"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pair rates") {
		t.Fatalf("throughput output:\n%s", b.String())
	}
}

func TestRunFig7AndFig8Quick(t *testing.T) {
	for _, fig := range []string{"fig7", "fig8"} {
		var b strings.Builder
		if err := run([]string{"-quick", fig}, &b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if !strings.Contains(out, "satellites") || !strings.Contains(out, "108") {
			t.Fatalf("%s output:\n%s", fig, out)
		}
	}
}

func TestRunCSVDirMultipleArtifacts(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-quick", "-csvdir", dir, "table3"}, &b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table3.csv")); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-csvdir", dir, "fig6"}, &b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestRunLatencyCSV(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-quick", "-csvdir", dir, "latency"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "latency.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "architecture,memory_t2_s") {
		t.Fatalf("latency csv: %.60s", string(data))
	}
}

func TestRunQKDCSV(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-csvdir", dir, "qkd"}, &b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "qkd.csv")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "purify.csv")); err == nil {
		t.Fatal("unexpected purify.csv from qkd subcommand")
	}
}

func TestRunPurifyCSV(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-csvdir", dir, "purify"}, &b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "purify.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestRunAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations sweep takes ~a minute even in quick mode")
	}
	var b strings.Builder
	if err := run([]string{"-quick", "ablations"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"routing cost metric",
		"fidelity convention",
		"elevation mask",
		"source placement",
		"turbulence strength",
		"constellation design",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablations output missing %q", want)
		}
	}
}

func TestRunArrivalsQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "arrivals"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "max queue") {
		t.Fatalf("arrivals output:\n%s", b.String())
	}
}

// TestRunParallelFlagOutputInvariant pins the CLI determinism claim: a
// sweep subcommand prints byte-identical output for any -parallel value.
func TestRunParallelFlagOutputInvariant(t *testing.T) {
	outputs := make([]string, 0, 3)
	for _, workers := range []string{"1", "2", "8"} {
		var b strings.Builder
		if err := run([]string{"-quick", "-parallel", workers, "fig6"}, &b); err != nil {
			t.Fatalf("-parallel %s: %v", workers, err)
		}
		outputs = append(outputs, b.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("fig6 output differs between -parallel 1 and -parallel %d:\n%s\nvs\n%s",
				[]int{1, 2, 8}[i], outputs[0], outputs[i])
		}
	}
}

// TestRunTelemetryDir drives -telemetry-dir/-events end to end: the run
// must leave a parseable manifest, both metric dumps and a valid event
// stream behind — and print exactly the same stdout as an uninstrumented
// run (the zero-interference claim at the CLI layer).
func TestRunTelemetryDir(t *testing.T) {
	var plain strings.Builder
	if err := run([]string{"-quick", "fig6"}, &plain); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var instrumented strings.Builder
	if err := run([]string{"-quick", "-telemetry-dir", dir, "-events", "fig6"}, &instrumented); err != nil {
		t.Fatal(err)
	}
	if instrumented.String() != plain.String() {
		t.Errorf("telemetry changed stdout:\n%s\nvs\n%s", instrumented.String(), plain.String())
	}

	f, err := os.Open(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := telemetry.ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Command != "fig6" {
		t.Errorf("manifest command %q", m.Command)
	}
	if len(m.ParamsHash) != 16 {
		t.Errorf("manifest params_hash %q", m.ParamsHash)
	}
	if m.GOMAXPROCS <= 0 || m.WallNs <= 0 {
		t.Errorf("manifest missing run shape: %+v", m)
	}
	if m.Summary["snapshot_steps_total"] <= 0 {
		t.Errorf("manifest summary lacks snapshot_steps_total: %v", m.Summary)
	}

	metrics, err := os.ReadFile(filepath.Join(dir, "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "counter snapshot_steps_total") {
		t.Errorf("metrics.txt:\n%s", metrics)
	}
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE qntn_snapshot_steps_total counter") {
		t.Errorf("metrics.prom:\n%s", prom)
	}

	ef, err := os.Open(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	events, err := telemetry.ReadNDJSON(ef)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
}

// TestRunTelemetryDirWithoutEvents: metrics only — no events.ndjson.
func TestRunTelemetryDirWithoutEvents(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-quick", "-telemetry-dir", dir, "table3"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"manifest.json", "metrics.txt", "metrics.prom"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "events.ndjson")); err == nil {
		t.Error("events.ndjson written without -events")
	}
}

// TestRunEventsRequiresTelemetryDir: -events alone has nowhere to write.
func TestRunEventsRequiresTelemetryDir(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-events", "fig6"}, &b); err == nil {
		t.Fatal("-events without -telemetry-dir accepted")
	}
}

// TestRunParallelFlagRejected ensures flag parsing still catches garbage.
func TestRunParallelFlagRejected(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-parallel", "lots", "fig6"}, &b); err == nil {
		t.Fatal("non-numeric -parallel accepted")
	}
}

// TestServeDaemonBadAddr exercises the serve-daemon wiring up to the
// listener: an unparseable address must fail fast instead of hanging the
// command waiting for signals.
func TestServeDaemonBadAddr(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:notaport", "serve-daemon"}, &b); err == nil {
		t.Fatal("unusable -addr accepted")
	}
}

// TestUsageMentionsServeDaemon keeps the usage line in sync with the
// subcommand table.
func TestUsageMentionsServeDaemon(t *testing.T) {
	var b strings.Builder
	if err := run([]string{}, &b); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if !strings.Contains(b.String(), "serve-daemon") {
		t.Fatalf("usage does not mention serve-daemon:\n%s", b.String())
	}
}
