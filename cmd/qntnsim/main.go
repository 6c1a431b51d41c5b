// Command qntnsim reproduces the paper's evaluation: each subcommand
// regenerates one table or figure (or runs the ablation studies), printing
// the same rows/series the paper reports.
//
// Usage:
//
//	qntnsim fig5                 # transmissivity vs entanglement fidelity
//	qntnsim fig6  [-duration 24h]
//	qntnsim fig7  [-steps 100 -requests 100]
//	qntnsim fig8  [-steps 100 -requests 100]
//	qntnsim table3
//	qntnsim ablations            # routing metric, convention, masks,
//	                             # placement, turbulence, orbit design
//	qntnsim latency|purify|qkd|night|statewide|outage|degrade|
//	        multipath|throughput|arrivals|protocol  # extension studies
//	                             # (see DESIGN.md)
//	qntnsim serve-daemon [-addr 127.0.0.1:9641]  # persistent traffic-engine
//	                             # HTTP daemon (see DESIGN.md "Traffic
//	                             # engine & serve daemon")
//	qntnsim params               # dump the default parameter file
//	qntnsim all
//
// and the paper's tool chain, each row with flags of its own after its name:
//
//	qntnsim constellation [-n 108 -duration 24h -out sheets.csv | -list | -walker t/p/f]
//	qntnsim coverage [-arch space|air|hybrid -n 108 -sheets sheets.csv -duration 24h]
//	qntnsim linkbudget [-turbulence]
//
// Global flags (before the subcommand): -seed, -steps, -requests,
// -duration, -quick, -csvdir <dir>, -params <file>, -parallel <N>
// (sweep worker pool size; 0 means one worker per CPU — every sweep
// produces identical output regardless of the value), the fault-injection
// group -fault-mtbf/-fault-mttr/-fault-seed/-weather-p (deterministic
// platform outages and weather blackouts; see DESIGN.md "Fault injection &
// degraded modes"), the profiling pair -cpuprofile <file> /
// -memprofile <file> (see `make profile`), and the telemetry pair
// -telemetry-dir <dir> / -events: -telemetry-dir instruments the run and
// writes manifest.json plus metrics.txt/metrics.prom into the directory;
// -events additionally collects per-step NDJSON traces into events.ndjson
// (see DESIGN.md "Observability").
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"qntn/internal/experiments"
	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/qkd"
	"qntn/internal/qntn"
	"qntn/internal/quantum/protocol"
	"qntn/internal/routing"
	"qntn/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qntnsim:", err)
		os.Exit(1)
	}
}

type options struct {
	seed        int64
	steps       int
	requests    int
	duration    time.Duration
	quick       bool
	csvDir      string
	paramsPath  string
	parallel    int
	cpuProfile  string
	memProfile  string
	faultMTBF   time.Duration
	faultMTTR   time.Duration
	faultSeed   int64
	weatherP    float64
	telDir      string
	events      bool
	eventDriven bool

	walkerShells   string
	islGrid        bool
	ground         string
	noSpatialIndex bool
	addr           string

	// args are the arguments after the subcommand, for the rows that
	// parse flags of their own.
	args []string
}

// applyFaults overlays the fault flags onto the parameter set (after any
// -params file, so the flags win). With no fault flags set the params are
// returned untouched and fault-free runs stay byte-identical to the
// baseline.
func (o options) applyFaults(p qntn.Params) (qntn.Params, error) {
	if o.faultMTBF < 0 || o.faultMTTR < 0 {
		return p, fmt.Errorf("-fault-mtbf and -fault-mttr must be positive durations")
	}
	if o.faultMTBF == 0 && o.weatherP == 0 && o.faultSeed == 0 {
		return p, nil
	}
	if o.faultMTBF > 0 {
		mttr := o.faultMTTR
		if mttr <= 0 {
			mttr = 10 * time.Minute
		}
		p.Fault.SatMTBF, p.Fault.SatMTTR = o.faultMTBF, mttr
		p.Fault.HAPMTBF, p.Fault.HAPMTTR = o.faultMTBF, mttr
	}
	if o.weatherP != 0 {
		p.Fault.WeatherP = o.weatherP
	}
	if o.faultSeed != 0 {
		p.Fault.Seed = o.faultSeed
	}
	if err := p.Fault.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// writeCSV writes one experiment's CSV file into the -csvdir directory (a
// no-op when the flag is unset).
func (o options) writeCSV(name string, fn func(io.Writer) error) error {
	if o.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.csvDir, name))
	if err != nil {
		return err
	}
	werr := fn(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// runFunc runs one subcommand against the assembled parameters, the serve
// workload and the parsed flags.
type runFunc func(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error

// subcommands is the ordered subcommand table. The usage line lists the
// names in this order, then all; all runs the inAll entries in this order,
// each followed by a blank line. Only the ownFlags rows accept arguments
// after their name (opt.args); the rest, and all, reject any.
var subcommands = []struct {
	name     string
	inAll    bool
	ownFlags bool
	run      runFunc
}{
	{"fig5", true, false, runFig5},
	{"fig6", true, false, runFig6},
	{"fig7", true, false, runFig78("fig7")},
	{"fig8", true, false, runFig78("fig8")},
	{"table3", true, false, runTable3},
	{"ablations", true, false, runAblations},
	{"latency", true, false, runLatency},
	{"purify", true, false, runPurify},
	{"qkd", true, false, runQKD},
	{"night", true, false, runNight},
	{"statewide", true, false, runStatewide},
	{"outage", true, false, runOutage},
	{"degrade", true, false, runDegrade},
	{"multipath", true, false, runMultipath},
	{"protocol", true, false, runProtocol},
	{"throughput", true, false, runThroughput},
	{"arrivals", true, false, runArrivals},
	{"serve-daemon", false, false, runServeDaemon},
	{"walker", false, false, runWalker},
	{"constellation", false, true, runConstellation},
	{"coverage", false, true, runCoverage},
	{"linkbudget", false, true, runLinkbudget},
	{"params", false, false, func(w io.Writer, p qntn.Params, _ qntn.ServeConfig, _ options) error { return qntn.SaveParams(w, p) }},
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("qntnsim", flag.ContinueOnError)
	fs.SetOutput(w)
	opt := options{}
	fs.Int64Var(&opt.seed, "seed", 1, "workload random seed")
	fs.IntVar(&opt.steps, "steps", 100, "satellite-movement steps per serve experiment")
	fs.IntVar(&opt.requests, "requests", 100, "requests per step")
	fs.DurationVar(&opt.duration, "duration", orbit.Day, "coverage horizon")
	fs.BoolVar(&opt.quick, "quick", false, "scale workloads down for a fast smoke run")
	fs.StringVar(&opt.csvDir, "csvdir", "", "also write machine-readable CSVs into this directory")
	fs.StringVar(&opt.paramsPath, "params", "", "load simulation parameters from a JSON file (see the `params` subcommand)")
	fs.IntVar(&opt.parallel, "parallel", 0, "sweep worker pool size (0 = one worker per CPU); results are identical at any value")
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&opt.memProfile, "memprofile", "", "write a heap profile to this file when the run finishes")
	fs.DurationVar(&opt.faultMTBF, "fault-mtbf", 0, "inject platform outages: mean time between failures for satellites and HAPs (0 = no outages)")
	fs.DurationVar(&opt.faultMTTR, "fault-mttr", 0, "mean time to repair for injected outages (default 10m when -fault-mtbf is set)")
	fs.Int64Var(&opt.faultSeed, "fault-seed", 0, "fault schedule random seed (0 keeps the params file's seed)")
	fs.Float64Var(&opt.weatherP, "weather-p", 0, "long-run fraction of time a regional weather blackout affects ground FSO links, in [0,1)")
	fs.StringVar(&opt.telDir, "telemetry-dir", "", "instrument the run and write manifest.json, metrics.txt and metrics.prom into this directory")
	fs.BoolVar(&opt.events, "events", false, "with -telemetry-dir, also collect per-step NDJSON event traces into events.ndjson")
	fs.BoolVar(&opt.eventDriven, "event-driven", false, "drive coverage, serve, arrivals and traffic runs from precomputed visibility windows instead of brute-force stepping (results are identical; telemetry-instrumented runs always step; waiting times: the arrivals subcommand)")
	fs.StringVar(&opt.walkerShells, "walker-shells", "1008/24/1@550:53", "walker subcommand: multi-shell constellation spec t/p/f@altkm:incdeg[,...]")
	fs.BoolVar(&opt.islGrid, "isl-grid", false, "walker subcommand: restrict inter-satellite links to the +grid topology (intra-plane ring + adjacent planes)")
	fs.StringVar(&opt.ground, "ground", "paper", "walker subcommand: ground set, paper (Table I Tennessee LANs) or global (plus five metro LANs on other continents)")
	fs.BoolVar(&opt.noSpatialIndex, "no-spatial-index", false, "force dense n² candidate generation instead of the spatial index (results are identical; differential-testing escape hatch)")
	fs.StringVar(&opt.addr, "addr", "127.0.0.1:9641", "serve-daemon subcommand: HTTP listen address")
	fs.Usage = func() {
		names := make([]string, 0, len(subcommands)+1)
		for _, sub := range subcommands {
			names = append(names, sub.name)
		}
		fmt.Fprintln(w, "usage: qntnsim [flags] "+strings.Join(append(names, "all"), "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd := fs.Arg(0)
	opt.args = fs.Args()[1:]
	var row runFunc // nil for all
	ownFlags := false
	if cmd != "all" {
		for _, sub := range subcommands {
			if sub.name == cmd {
				row, ownFlags = sub.run, sub.ownFlags
			}
		}
		if row == nil {
			fs.Usage()
			return fmt.Errorf("unknown subcommand %q", cmd)
		}
	}
	if !ownFlags && len(opt.args) > 0 {
		return fmt.Errorf("unexpected argument %q after %s (global flags go before the subcommand)", opt.args[0], cmd)
	}
	if opt.events && opt.telDir == "" {
		return fmt.Errorf("-events requires -telemetry-dir")
	}
	if opt.quick {
		opt.steps = 10
		opt.requests = 20
		if opt.duration > 2*time.Hour {
			opt.duration = 2 * time.Hour
		}
	}
	if opt.cpuProfile != "" {
		f, ferr := os.Create(opt.cpuProfile)
		if ferr != nil {
			return ferr
		}
		// runtime/pprof's profile writer discards errors from the
		// underlying io.Writer, so capture them ourselves: a truncated
		// profile must fail the run, not parse as a mystery later.
		ew := &errorCapturingWriter{w: f}
		if perr := pprof.StartCPUProfile(ew); perr != nil {
			if cerr := f.Close(); cerr != nil {
				return fmt.Errorf("%w (and closing profile: %v)", perr, cerr)
			}
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			cerr := f.Close()
			if err == nil {
				err = ew.err
			}
			if err == nil {
				err = cerr
			}
		}()
	}
	if opt.memProfile != "" {
		defer func() {
			if err == nil {
				err = writeHeapProfile(opt.memProfile)
			}
		}()
	}

	params := qntn.DefaultParams()
	if opt.paramsPath != "" {
		f, err := os.Open(opt.paramsPath)
		if err != nil {
			return err
		}
		params, err = qntn.LoadParams(f)
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
	}
	params, err = opt.applyFaults(params)
	if err != nil {
		return err
	}
	// The arrivals admission samples its -duration horizon itself, so a
	// fault schedule (from the flags or the params file) must reach past
	// it; the one-day serve runs sample strictly inside the default day.
	params = params.CoverFaults(opt.duration)
	params.EventDriven = opt.eventDriven
	params.DisableSpatialIndex = opt.noSpatialIndex
	serveCfg := qntn.ServeConfig{
		RequestsPerStep: opt.requests,
		Steps:           opt.steps,
		Horizon:         orbit.Day,
		Seed:            opt.seed,
	}

	// -telemetry-dir instruments every scenario the run assembles; the
	// collector is flushed to disk after the subcommand succeeds. The hash
	// is taken before wiring so it reflects the physical configuration only.
	var col *telemetry.Collector
	var runSpan *telemetry.Span
	paramsHash := ""
	if opt.telDir != "" {
		paramsHash = qntn.ParamsHash(params)
		col = telemetry.NewCollector()
		if !opt.events {
			col.Events = nil
		}
		params.Telemetry = col
		runSpan = telemetry.StartSpan(cmd, time.Now)
	}

	runErr := func() error {
		if row != nil {
			return row(w, params, serveCfg, opt)
		}
		for _, sub := range subcommands {
			if !sub.inAll {
				continue
			}
			if err := sub.run(w, params, serveCfg, opt); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}()
	if runErr != nil {
		return runErr
	}
	return writeTelemetry(opt, cmd, paramsHash, col, runSpan)
}

// errorCapturingWriter remembers the first write error, because
// runtime/pprof's internal profile builder drops errors from the writer it
// is handed.
type errorCapturingWriter struct {
	w   io.Writer
	err error
}

func (ew *errorCapturingWriter) Write(p []byte) (int, error) {
	n, err := ew.w.Write(p)
	if err != nil && ew.err == nil {
		ew.err = err
	}
	return n, err
}

// writeHeapProfile snapshots the heap into path after a final GC, so the
// profile reflects live objects rather than garbage awaiting collection.
// The profile is serialized to memory first: pprof swallows writer errors,
// and the file write below is where failure is actually observable.
func writeHeapProfile(path string) error {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.WriteHeapProfile(&buf); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, werr := f.Write(buf.Bytes())
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func runFig5(w io.Writer, _ qntn.Params, _ qntn.ServeConfig, opt options) error {
	points, err := experiments.Fig5(0.01)
	if err != nil {
		return err
	}
	if err := opt.writeCSV("fig5.csv", func(f io.Writer) error { return experiments.Fig5CSV(f, points) }); err != nil {
		return err
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i], ys[i] = p.Eta, p.FidelityRoot
	}
	if err := experiments.RenderSeries(w, "Fig. 5 — transmissivity vs entanglement fidelity",
		"transmissivity", "fidelity", xs, ys); err != nil {
		return err
	}
	eta, err := experiments.Fig5Threshold(points, 0.9)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "first transmissivity with fidelity ≥ 0.90: %.2f (paper adopts the conservative 0.70)\n", eta)
	return nil
}

func runFig6(w io.Writer, p qntn.Params, _ qntn.ServeConfig, opt options) error {
	points, err := experiments.Fig6(p, opt.duration, opt.parallel)
	if err != nil {
		return err
	}
	if err := opt.writeCSV("fig6.csv", func(f io.Writer) error { return experiments.Fig6CSV(f, points) }); err != nil {
		return err
	}
	rows := make([][]string, len(points))
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, pt := range points {
		rows[i] = []string{
			strconv.Itoa(pt.Satellites),
			experiments.FormatPercent(pt.Result.Percent()),
			pt.Result.Covered.Truncate(time.Second).String(),
			strconv.Itoa(len(pt.Result.Intervals)),
		}
		xs[i], ys[i] = float64(pt.Satellites), pt.Result.Percent()
	}
	title := fmt.Sprintf("Fig. 6 — coverage of the space-ground network over %v", opt.duration)
	if err := experiments.RenderTable(w, title,
		[]string{"satellites", "coverage", "covered time", "intervals"}, rows); err != nil {
		return err
	}
	return experiments.RenderSeries(w, "", "satellites", "coverage %", xs, ys)
}

// runFig78 returns the fig7 or fig8 subcommand: one serve sweep, plotted
// as served percentage or as mean fidelity.
func runFig78(which string) runFunc {
	return func(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
		points, err := experiments.Fig7And8(p, cfg, opt.parallel)
		if err != nil {
			return err
		}
		if err := opt.writeCSV(which+".csv", func(f io.Writer) error { return experiments.Fig78CSV(f, points) }); err != nil {
			return err
		}
		rows := make([][]string, len(points))
		xs := make([]float64, len(points))
		ys := make([]float64, len(points))
		for i, pt := range points {
			rows[i] = []string{
				strconv.Itoa(pt.Satellites),
				experiments.FormatPercent(pt.Result.ServedPercent),
				fmt.Sprintf("%.4f", pt.Result.MeanFidelity),
			}
			xs[i] = float64(pt.Satellites)
			if which == "fig7" {
				ys[i] = pt.Result.ServedPercent
			} else {
				ys[i] = pt.Result.MeanFidelity
			}
		}
		title := "Fig. 7 — served entanglement distribution requests"
		yLabel := "served %"
		if which == "fig8" {
			title = "Fig. 8 — average entanglement fidelity of resolved requests"
			yLabel = "fidelity"
		}
		if err := experiments.RenderTable(w, title,
			[]string{"satellites", "served", "mean fidelity"}, rows); err != nil {
			return err
		}
		return experiments.RenderSeries(w, "", "satellites", yLabel, xs, ys)
	}
}

func runTable3(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
	rows, err := experiments.Table3(p, cfg, opt.duration, opt.parallel)
	if err != nil {
		return err
	}
	if err := opt.writeCSV("table3.csv", func(f io.Writer) error { return experiments.Table3CSV(f, rows) }); err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			r.Architecture,
			experiments.FormatPercent(r.CoveragePercent),
			experiments.FormatPercent(r.ServedPercent),
			experiments.FormatFidelity(r.MeanFidelity),
		}
	}
	return experiments.RenderTable(w, "Table III — architecture comparison",
		[]string{"architecture", "P (coverage)", "serving requests", "entanglement fidelity"}, cells)
}

func runAblations(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
	const nSats = orbit.MaxPaperSatellites

	routing, err := experiments.AblationRoutingMetric(p, nSats, cfg, opt.parallel)
	if err != nil {
		return err
	}
	rows := make([][]string, len(routing))
	for i, r := range routing {
		rows[i] = []string{r.Metric, experiments.FormatPercent(r.ServedPercent),
			fmt.Sprintf("%.4f", r.MeanFidelity), fmt.Sprintf("%.4f", r.MeanPathEta), fmt.Sprintf("%.2f", r.MeanHops)}
	}
	if err := experiments.RenderTable(w, "Ablation — routing cost metric (hybrid: HAP + 108 satellites)",
		[]string{"metric", "served", "fidelity", "path eta", "hops"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w)

	conv, err := experiments.AblationFidelityConvention(p, nSats, cfg, opt.parallel)
	if err != nil {
		return err
	}
	rows = rows[:0]
	for _, r := range conv {
		rows = append(rows, []string{r.Architecture, fmt.Sprintf("%.4f", r.MeanRoot), fmt.Sprintf("%.4f", r.MeanSquared)})
	}
	if err := experiments.RenderTable(w, "Ablation — fidelity convention (root vs literal Eq. 5)",
		[]string{"architecture", "root", "squared"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w)

	masks, err := experiments.AblationElevationMask(p, nSats, opt.duration, []float64{10, 15, 20, 25, 30}, opt.parallel)
	if err != nil {
		return err
	}
	rows = rows[:0]
	for _, r := range masks {
		rows = append(rows, []string{fmt.Sprintf("%.0f°", r.MaskDeg), experiments.FormatPercent(r.CoveragePercent)})
	}
	if err := experiments.RenderTable(w, fmt.Sprintf("Ablation — elevation mask (108 satellites, %v)", opt.duration),
		[]string{"mask", "coverage"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w)

	placement, err := experiments.AblationSourcePlacement(p, nSats, cfg, opt.parallel)
	if err != nil {
		return err
	}
	rows = rows[:0]
	for _, r := range placement {
		rows = append(rows, []string{r.Architecture, r.Model.String(), fmt.Sprintf("%.4f", r.MeanFidelity)})
	}
	if err := experiments.RenderTable(w, "Ablation — entanglement source placement",
		[]string{"architecture", "model", "fidelity"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w)

	turb, err := experiments.AblationTurbulence(p, nSats, cfg, []float64{0, 0.05, 0.1, 0.25, 0.5, 1}, opt.parallel)
	if err != nil {
		return err
	}
	rows = rows[:0]
	for _, r := range turb {
		rows = append(rows, []string{
			fmt.Sprintf("%.2fx", r.Scale),
			experiments.FormatPercent(r.SpaceServedPercent), fmt.Sprintf("%.4f", r.SpaceMeanFidelity),
			experiments.FormatPercent(r.AirServedPercent), fmt.Sprintf("%.4f", r.AirMeanFidelity),
		})
	}
	if err := experiments.RenderTable(w, "Ablation — turbulence strength (HV5/7 scale)",
		[]string{"turbulence", "space served", "space fidelity", "air served", "air fidelity"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w)

	design, err := experiments.AblationOrbitDesign(p, nSats, opt.duration,
		[]float64{400, 500, 700, 1000}, []float64{40, 53, 70}, opt.parallel)
	if err != nil {
		return err
	}
	rows = rows[:0]
	for _, r := range design {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f km", r.AltitudeKM),
			fmt.Sprintf("%.0f°", r.InclinationDeg),
			experiments.FormatPercent(r.CoveragePercent),
		})
	}
	return experiments.RenderTable(w, fmt.Sprintf("Ablation — constellation design (108 satellites, %v)", opt.duration),
		[]string{"altitude", "inclination", "coverage"}, rows)
}

func runLatency(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
	t2s := []time.Duration{0, 100 * time.Millisecond, 10 * time.Millisecond, time.Millisecond}
	rows, err := experiments.ExtensionLatencyStudy(p, orbit.MaxPaperSatellites, cfg, t2s)
	if err != nil {
		return err
	}
	if err := opt.writeCSV("latency.csv", func(f io.Writer) error { return experiments.LatencyCSV(f, rows) }); err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		t2 := "ideal"
		if r.MemoryT2 > 0 {
			t2 = r.MemoryT2.String()
		}
		cells[i] = []string{
			r.Architecture, t2,
			experiments.FormatPercent(r.ServedPercent),
			fmt.Sprintf("%.4f", r.MeanFidelity),
			r.MeanLatency.Truncate(time.Microsecond).String(),
			r.MaxLatency.Truncate(time.Microsecond).String(),
		}
	}
	return experiments.RenderTable(w, "Extension — heralding latency and memory dephasing (DES serving)",
		[]string{"architecture", "memory T2", "served", "fidelity", "mean latency", "max latency"}, cells)
}

func runPurify(w io.Writer, _ qntn.Params, _ qntn.ServeConfig, opt options) error {
	// Representative end-to-end transmissivities: the space-ground floor
	// (two threshold links, 0.49), the measured space average (~0.72),
	// and the air-ground value (~0.92).
	rows, err := experiments.ExtensionPurificationStudy([]float64{0.49, 0.72, 0.92}, 3)
	if err != nil {
		return err
	}
	if err := opt.writeCSV("purify.csv", func(f io.Writer) error { return experiments.PurificationCSV(f, rows) }); err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			fmt.Sprintf("%.2f", r.LinkEta),
			strconv.Itoa(r.Round),
			fmt.Sprintf("%.4f", r.Fidelity),
			fmt.Sprintf("%.3f", r.SuccessProbability),
			fmt.Sprintf("%.2f", r.ExpectedPairsConsumed),
		}
	}
	return experiments.RenderTable(w, "Extension — BBPSSW purification of distributed pairs",
		[]string{"path eta", "round", "fidelity", "p(success)", "raw pairs needed"}, cells)
}

func runQKD(w io.Writer, p qntn.Params, _ qntn.ServeConfig, opt options) error {
	rows, err := experiments.ExtensionQKDStudy(p, qkd.DefaultDetector())
	if err != nil {
		return err
	}
	if err := opt.writeCSV("qkd.csv", func(f io.Writer) error { return experiments.QKDCSV(f, rows) }); err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			r.Label,
			fmt.Sprintf("%.3f/%.3f", r.Eta1, r.Eta2),
			formatRate(r.BBM92KeyRateHz),
			formatRate(r.TrustedBB84KeyRateHz),
			fmt.Sprintf("%.2f%%", 100*r.QBER),
		}
	}
	return experiments.RenderTable(w, "Extension — QKD key rates (100 MHz source)",
		[]string{"geometry", "downlink etas", "BBM92 (untrusted)", "BB84 (trusted relay)", "QBER"}, cells)
}

// formatRate renders a key rate in bit/s with k/M scaling.
func formatRate(hz float64) string { return formatPerSecond(hz, "bit/s") }

// formatPairRate renders a delivered-pair rate in pairs/s.
func formatPairRate(hz float64) string { return formatPerSecond(hz, "pairs/s") }

func formatPerSecond(hz float64, unit string) string {
	switch {
	case hz >= 1e6:
		return fmt.Sprintf("%.2f M%s", hz/1e6, unit)
	case hz >= 1e3:
		return fmt.Sprintf("%.2f k%s", hz/1e3, unit)
	default:
		return fmt.Sprintf("%.1f %s", hz, unit)
	}
}

func runNight(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
	rows, err := experiments.ExtensionNightStudy(p, orbit.MaxPaperSatellites, cfg, opt.duration)
	if err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		policy := "ideal (any time)"
		if r.NightOnly {
			policy = "night only"
		}
		cells[i] = []string{
			r.Architecture, policy,
			experiments.FormatPercent(r.CoveragePercent),
			experiments.FormatPercent(r.ServedPercent),
		}
	}
	return experiments.RenderTable(w, "Extension — daylight-background constraint (equinox sun, civil twilight)",
		[]string{"architecture", "operation", "coverage", "served"}, cells)
}

func runStatewide(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
	positions, connected, total, err := experiments.StatewidePlacement(p, 6)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "greedy HAP placement over the six-LAN region (%d/%d pairs reachable):\n", connected, total)
	for i, pos := range positions {
		fmt.Fprintf(w, "  HAP-%d at (%.3f°, %.3f°)\n", i+1, pos.LatDeg, pos.LonDeg)
	}
	fmt.Fprintln(w)

	rows, err := experiments.ExtensionStatewideStudy(p, cfg, opt.duration, []int{1, 2, 3}, opt.parallel)
	if err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			r.Architecture,
			experiments.FormatPercent(r.ConnectedPairsPercent),
			experiments.FormatPercent(r.CoveragePercent),
			experiments.FormatPercent(r.ServedPercent),
		}
	}
	return experiments.RenderTable(w, "Extension — statewide six-LAN region (paper cities + Nashville, Memphis, Knoxville)",
		[]string{"architecture", "reachable pairs", "coverage", "served"}, cells)
}

func runOutage(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
	rows, err := experiments.ExtensionOutageStudy(p, cfg, opt.duration, []float64{0, 0.05, 0.1, 0.2, 0.4})
	if err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			fmt.Sprintf("%.0f%%", 100*r.Unavailability),
			experiments.FormatPercent(r.CoveragePercent),
			experiments.FormatPercent(r.ServedPercent),
			strconv.Itoa(r.Intervals),
		}
	}
	return experiments.RenderTable(w, "Extension — HAP outage sensitivity (air-ground)",
		[]string{"HAP unavailability", "coverage", "served", "intervals"}, cells)
}

func runDegrade(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
	sizes := []int{6, 24, 54, 108}
	levels := []float64{0, 0.05, 0.1, 0.2, 0.4}
	if opt.quick {
		sizes = []int{6, 24}
		levels = []float64{0, 0.2}
	}
	rows, err := experiments.DegradationStudy(p, cfg, opt.duration, sizes, levels, opt.parallel)
	if err != nil {
		return err
	}
	if err := opt.writeCSV("degrade.csv", func(f io.Writer) error { return experiments.DegradationCSV(f, rows) }); err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		sats := "—"
		if r.Satellites > 0 {
			sats = strconv.Itoa(r.Satellites)
		}
		cells[i] = []string{
			r.Architecture, sats,
			fmt.Sprintf("%.0f%%", 100*r.Unavailability),
			experiments.FormatPercent(r.CoveragePercent),
			strconv.Itoa(r.Intervals),
			experiments.FormatPercent(r.ServedPercent),
			fmt.Sprintf("%.4f", r.MeanFidelity),
		}
	}
	return experiments.RenderTable(w, "Extension — graceful degradation under injected faults (platform outages + weather)",
		[]string{"architecture", "satellites", "unavailability", "coverage", "intervals", "served", "fidelity"}, cells)
}

func runMultipath(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
	rows, err := experiments.ExtensionMultipathStudy(p, orbit.MaxPaperSatellites, cfg, 3, opt.parallel)
	if err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			strconv.Itoa(r.Paths),
			fmt.Sprintf("%.2f", r.MeanPathsFound),
			fmt.Sprintf("%.4f", r.MeanSuccessProbability),
		}
	}
	return experiments.RenderTable(w, "Extension — disjoint-path redundancy (hybrid: HAP + 108 satellites)",
		[]string{"path budget", "mean paths found", "P(at least one success)"}, cells)
}

func runProtocol(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, opt options) error {
	// The study's protocol mix: lossy linear-optics-grade swaps and the
	// differential suite's draw seed, with memory quality and purification
	// budget as the grid axes.
	base := protocol.Config{SwapSuccess: 0.85, Seed: 5}
	sizes := []int{6, 24, 54, 108}
	t2s := []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	budgets := []int{1, 2, 4}
	if opt.quick {
		sizes = []int{6, 24}
		t2s = []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
		budgets = []int{1, 3}
	}
	rows, err := experiments.ProtocolStudy(p, cfg, base, sizes, t2s, budgets, opt.parallel)
	if err != nil {
		return err
	}
	if err := opt.writeCSV("protocol.csv", func(f io.Writer) error { return experiments.ProtocolCSV(f, rows) }); err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		proto := "off"
		if r.Enabled {
			proto = fmt.Sprintf("T2=%v k=%d", r.MemoryT2, r.PurifyPaths)
		}
		cells[i] = []string{
			r.Architecture,
			strconv.Itoa(r.Satellites),
			proto,
			experiments.FormatPercent(r.ServedPercent),
			fmt.Sprintf("%.4f", r.MeanFidelity),
			fmt.Sprintf("%.4f", r.MeanPathEta),
		}
	}
	return experiments.RenderTable(w, "Extension — entanglement protocol: T2 memories, swap chains, k-path purification",
		[]string{"architecture", "satellites", "protocol", "served", "fidelity", "path eta"}, cells)
}

func runThroughput(w io.Writer, p qntn.Params, cfg qntn.ServeConfig, _ options) error {
	const sourceRateHz = 1e6 // 1 MHz entangled-pair source
	rows, err := experiments.ExtensionThroughputStudy(p, orbit.MaxPaperSatellites, cfg, sourceRateHz)
	if err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			r.Architecture,
			formatPairRate(r.MeanServedPairRateHz),
			formatPairRate(r.MeanEffectiveRateHz),
			formatPairRate(r.WorstServedPairRateHz),
		}
	}
	return experiments.RenderTable(w, "Extension — delivered pair rates (1 MHz platform source)",
		[]string{"architecture", "mean (served)", "mean (all requests)", "worst served"}, cells)
}

func runArrivals(w io.Writer, p qntn.Params, _ qntn.ServeConfig, opt options) error {
	rows, err := experiments.ExtensionArrivalStudy(p, orbit.MaxPaperSatellites, opt.duration, []float64{60, 240}, opt.seed)
	if err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			r.Architecture,
			fmt.Sprintf("%.0f/h", r.RatePerHour),
			experiments.FormatPercent(r.ServedPercent),
			experiments.FormatPercent(r.ImmediatePercent),
			r.MeanWait.Truncate(time.Second).String(),
			strconv.Itoa(r.MaxQueueDepth),
			fmt.Sprintf("%.4f", r.MeanFidelity),
		}
	}
	return experiments.RenderTable(w, "Extension — Poisson arrivals through the DES (queueing dynamics)",
		[]string{"architecture", "rate", "served", "immediate", "mean wait", "max queue", "fidelity"}, cells)
}

// runWalker assembles a multi-shell Walker constellation — the global-scale
// scenario the spatial index makes tractable — and runs a coverage study
// over it. One instrumented snapshot reports the index's selectivity: the
// fraction of the n(n-1)/2 node pairs the candidate generator actually
// visited.
func runWalker(w io.Writer, p qntn.Params, _ qntn.ServeConfig, opt options) error {
	shells, err := orbit.ParseWalkerShells(opt.walkerShells)
	if err != nil {
		return err
	}
	spec := qntn.WalkerSpec{Shells: shells, ISLGrid: opt.islGrid}
	switch opt.ground {
	case "", "paper":
	case "global":
		spec.Ground = qntn.GlobalGroundNetworks()
	default:
		return fmt.Errorf("unknown -ground %q (want paper or global)", opt.ground)
	}
	sc, err := qntn.NewWalker(spec, p)
	if err != nil {
		return err
	}
	nSats := 0
	for _, sh := range shells {
		nSats += sh.Count()
	}
	ground := opt.ground
	if ground == "" {
		ground = "paper"
	}
	fmt.Fprintf(w, "Walker constellation: %d satellites in %d shell(s), %d nodes total (isl-grid=%v, ground=%s)\n",
		nSats, len(shells), sc.Net.NumNodes(), opt.islGrid, ground)

	g := routing.NewGraph()
	var st netsim.SnapshotStats
	if err := sc.GraphInto(g, 0, &st); err != nil {
		return err
	}
	if st.Pairs > 0 {
		visited := int64(st.Pairs) - st.IndexCulled
		fmt.Fprintf(w, "snapshot at t=0: %d node pairs, %d visited after spatial-index culling (%.2f%%), %d links admitted\n",
			st.Pairs, visited, 100*float64(visited)/float64(st.Pairs), st.Admitted)
	}

	cov, err := sc.Coverage(opt.duration)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "coverage over %v: %s (%v covered across %d interval(s))\n",
		opt.duration, experiments.FormatPercent(cov.Percent()),
		cov.Covered.Truncate(time.Second), len(cov.Intervals))
	return nil
}
