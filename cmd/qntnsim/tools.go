package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"qntn/internal/atmosphere"
	"qntn/internal/channel"
	"qntn/internal/geo"
	"qntn/internal/orbit"
	"qntn/internal/qntn"
	"qntn/internal/quantum"
	"qntn/internal/trace"
)

// The three rows below are the paper's tool chain, each parsing the
// arguments after its name with flags of its own: constellation stands in
// for STK, coverage replays its movement sheets, and linkbudget prints the
// calibrated FSO budget behind the 0.7 threshold. Their -duration is their
// own flag, independent of the global one and of -quick.

// runConstellation builds the Table II Walker-Delta catalog (or a custom
// Walker configuration), propagates it, and exports per-satellite movement
// sheets as CSV for the simulator to replay:
//
//	qntnsim constellation -n 108 -duration 24h -interval 30s -out sheets.csv
//	qntnsim constellation -list            # print the Table II catalog
//	qntnsim constellation -walker 36/6/1   # custom Walker t/p/f
func runConstellation(w io.Writer, _ qntn.Params, _ qntn.ServeConfig, opt options) error {
	fs := flag.NewFlagSet("constellation", flag.ContinueOnError)
	fs.SetOutput(w)
	n := fs.Int("n", orbit.MaxPaperSatellites, "number of Table II satellites (multiple of 6, ≤108)")
	duration := fs.Duration("duration", orbit.Day, "propagation span")
	interval := fs.Duration("interval", orbit.DefaultSampleInterval, "sample interval")
	out := fs.String("out", "", "output CSV path (default stdout)")
	list := fs.Bool("list", false, "print the orbital catalog instead of propagating")
	walker := fs.String("walker", "", "custom Walker t/p/f (e.g. 36/6/1) instead of Table II")
	altKM := fs.Float64("alt", 500, "altitude in km for -walker")
	incl := fs.Float64("incl", 53, "inclination in degrees for -walker")
	if err := fs.Parse(opt.args); err != nil {
		return err
	}

	var elems []orbit.Elements
	var err error
	if *walker != "" {
		var t, p, f int
		if _, err := fmt.Sscanf(strings.ReplaceAll(*walker, "/", " "), "%d %d %d", &t, &p, &f); err != nil {
			return fmt.Errorf("bad -walker %q (want t/p/f): %w", *walker, err)
		}
		elems, err = orbit.WalkerDelta(t, p, f, *incl, *altKM*1000)
	} else {
		elems, err = orbit.PaperConstellation(*n)
	}
	if err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(w, "%-8s %-10s %-12s %-10s %-8s\n", "sat", "RAAN(deg)", "anomaly(deg)", "alt(km)", "period")
		for i, e := range elems {
			fmt.Fprintf(w, "SAT-%03d  %-10.1f %-12.1f %-10.1f %v\n",
				i+1, geo.Deg(e.RAANRad), geo.Deg(e.TrueAnomalyRad),
				(e.SemiMajorAxisM-geo.EarthRadiusM)/1000, e.Period().Truncate(time.Second))
		}
		return nil
	}

	sheets, err := orbit.GenerateSheets(elems, *duration, *interval)
	if err != nil {
		return err
	}
	if *out == "" {
		return trace.Write(w, sheets)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	werr := trace.Write(f, sheets)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(w, "wrote %d sheets (%d samples each) to %s\n", len(sheets), len(sheets[0].Samples), *out)
	return nil
}

// runCoverage analyzes the regional coverage of one architecture: the
// air-ground HAP, the hybrid, or a space-ground constellation defined by a
// satellite count or by movement sheets from the constellation row:
//
//	qntnsim coverage -arch air
//	qntnsim coverage -arch space -n 108 -duration 24h
//	qntnsim coverage -arch space -sheets sheets.csv
func runCoverage(w io.Writer, p qntn.Params, _ qntn.ServeConfig, opt options) error {
	fs := flag.NewFlagSet("coverage", flag.ContinueOnError)
	fs.SetOutput(w)
	arch := fs.String("arch", "space", `architecture: "space", "air", or "hybrid"`)
	n := fs.Int("n", orbit.MaxPaperSatellites, "satellite count for -arch space/hybrid")
	sheetsPath := fs.String("sheets", "", "movement-sheet CSV to replay in place of -n propagation (-arch space only)")
	duration := fs.Duration("duration", orbit.Day, "analysis span")
	showIntervals := fs.Bool("intervals", false, "list each connected interval")
	showPairs := fs.Bool("pairs", false, "break coverage down per LAN pair and report link churn")
	showTimeline := fs.Bool("timeline", false, "print an hour-by-hour coverage strip")
	if err := fs.Parse(opt.args); err != nil {
		return err
	}
	if *sheetsPath != "" {
		if *arch != "space" {
			return fmt.Errorf("-sheets replays a space-ground constellation; it needs -arch space, not %q", *arch)
		}
		nSet := false
		fs.Visit(func(f *flag.Flag) { nSet = nSet || f.Name == "n" })
		if nSet {
			return fmt.Errorf("-n and -sheets conflict: the sheets fix the satellite count")
		}
	}

	p = p.CoverFaults(*duration)
	var sc *qntn.Scenario
	var err error
	switch *arch {
	case "air":
		sc, err = qntn.NewAirGround(p)
	case "hybrid":
		sc, err = qntn.NewHybrid(*n, p)
	case "space":
		if *sheetsPath != "" {
			f, ferr := os.Open(*sheetsPath)
			if ferr != nil {
				return ferr
			}
			sheets, rerr := trace.Read(f)
			cerr := f.Close()
			if rerr != nil {
				return rerr
			}
			if cerr != nil {
				return cerr
			}
			sc, err = qntn.NewSpaceGroundFromSheets(sheets, p)
		} else {
			sc, err = qntn.NewSpaceGround(*n, p)
		}
	default:
		return fmt.Errorf("unknown architecture %q", *arch)
	}
	if err != nil {
		return err
	}

	res, err := sc.Coverage(*duration)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "architecture:   %s\n", sc.Arch)
	fmt.Fprintf(w, "relays:         %d\n", len(sc.RelayIDs))
	fmt.Fprintf(w, "span:           %v (%d steps of %v)\n", *duration, res.Steps, sc.Params.StepInterval)
	fmt.Fprintf(w, "covered:        %v across %d intervals\n", res.Covered, len(res.Intervals))
	fmt.Fprintf(w, "coverage:       %.2f%%\n", res.Percent())
	if *showIntervals {
		for i, iv := range res.Intervals {
			fmt.Fprintf(w, "  interval %3d: %v — %v (%v)\n", i+1, iv.Start, iv.End, iv.Duration())
		}
	}
	if *showPairs {
		detail, err := sc.DetailedCoverage(*duration)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "per-pair coverage:")
		for _, pair := range detail.Pairs {
			fmt.Fprintf(w, "  %4s ↔ %-4s %7.2f%% (%d intervals)\n",
				pair.NetworkA, pair.NetworkB, pair.Result.Percent(), len(pair.Result.Intervals))
		}
		fmt.Fprintf(w, "link transitions: %d\n", detail.LinkTransitions)
	}
	if *showTimeline {
		printTimeline(w, res, *duration)
	}
	return nil
}

// printTimeline renders the coverage intervals as a strip of 72 buckets
// ('█' fully covered, '▒' partially, '·' uncovered), one line per strip,
// with hour marks.
func printTimeline(w io.Writer, res *qntn.CoverageResult, duration time.Duration) {
	const buckets = 72
	bucket := duration / buckets
	if bucket <= 0 {
		return
	}
	covered := make([]time.Duration, buckets)
	for _, iv := range res.Intervals {
		for b := 0; b < buckets; b++ {
			lo := time.Duration(b) * bucket
			hi := lo + bucket
			s, e := iv.Start, iv.End
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			if e > s {
				covered[b] += e - s
			}
		}
	}
	fmt.Fprintf(w, "timeline (each cell %v):\n  ", bucket.Truncate(time.Second))
	for b := 0; b < buckets; b++ {
		frac := float64(covered[b]) / float64(bucket)
		switch {
		case frac >= 0.999:
			fmt.Fprint(w, "█")
		case frac > 0:
			fmt.Fprint(w, "▒")
		default:
			fmt.Fprint(w, "·")
		}
	}
	fmt.Fprintf(w, "\n  0%*s%v\n", 71, "", duration)
}

// runLinkbudget prints the FSO link-budget breakdown (diffraction,
// atmospheric, receiver factors and the resulting transmissivity and
// fidelity) for the calibrated satellite and HAP channels, the derivation
// of the calibration documented in DESIGN.md:
//
//	qntnsim linkbudget               # satellite elevation sweep + HAP city links
//	qntnsim linkbudget -turbulence
func runLinkbudget(w io.Writer, p qntn.Params, _ qntn.ServeConfig, opt options) error {
	fs := flag.NewFlagSet("linkbudget", flag.ContinueOnError)
	fs.SetOutput(w)
	withTurb := fs.Bool("turbulence", false, "include nominal HV5/7 turbulence")
	if err := fs.Parse(opt.args); err != nil {
		return err
	}

	if *withTurb {
		hv := atmosphere.HV57()
		p.Turbulence = &hv
	}
	sat := p.SpaceDownlinkFSO()
	hap := p.HAPDownlinkFSO()

	fmt.Fprintf(w, "parameters: λ=%.0f nm, space waist %.3f m, HAP waist %.3f m, τ_zenith=%.3f, η_eff=%.3f, threshold=%.2f, mask=%.0f°\n\n",
		p.WavelengthM*1e9, p.SpaceBeamWaistM, p.HAPBeamWaistM,
		p.ZenithOpticalDepth, p.ReceiverEfficiency,
		p.TransmissivityThreshold, geo.Deg(p.MinElevationRad))

	fmt.Fprintln(w, "satellite downlink (500 km altitude), per elevation:")
	fmt.Fprintf(w, "%6s %10s %8s %8s %8s %8s %8s\n", "elev", "slant km", "diff", "atm", "eta", "usable", "F(2 legs)")
	re := geo.EarthRadiusM
	h := p.SatelliteAltitudeM
	for _, deg := range []float64{10, 15, 20, 25, 30, 40, 50, 60, 75, 90} {
		e := geo.Rad(deg)
		slant := math.Sqrt((re+h)*(re+h)-re*re*math.Cos(e)*math.Cos(e)) - re*math.Sin(e)
		b := sat.Breakdown(channel.FSOGeometry{RangeM: slant, ElevationRad: e, LoAltM: 0, HiAltM: h})
		eta := b.Total()
		usable := eta >= p.TransmissivityThreshold && e >= p.MinElevationRad
		f := quantum.AnalyticBellFidelityBothArms(eta, eta)
		fmt.Fprintf(w, "%5.0f° %10.1f %8.4f %8.4f %8.4f %8v %8.4f\n",
			deg, slant/1000, b.Diffraction, b.Atmospheric, eta, usable, f)
	}

	fmt.Fprintln(w, "\nHAP downlink (30 km altitude) to each local network:")
	fmt.Fprintf(w, "%6s %8s %10s %8s %8s %8s\n", "LAN", "elev", "slant km", "diff", "atm", "eta")
	hapPos := geo.LLA{LatDeg: p.HAPLatDeg, LonDeg: p.HAPLonDeg, AltM: p.HAPAltM}
	for _, lan := range qntn.GroundNetworks() {
		la := geo.Look(lan.Centroid(), hapPos.ECEF())
		b := hap.Breakdown(channel.FSOGeometry{
			RangeM:       la.SlantRangeM,
			ElevationRad: la.ElevationRad,
			LoAltM:       0,
			HiAltM:       p.HAPAltM,
		})
		fmt.Fprintf(w, "%6s %7.1f° %10.1f %8.4f %8.4f %8.4f\n",
			lan.Name, geo.Deg(la.ElevationRad), la.SlantRangeM/1000, b.Diffraction, b.Atmospheric, b.Total())
	}

	fmt.Fprintln(w, "\nHAP end-to-end (platform source, one downlink per arm):")
	nets := qntn.GroundNetworks()
	for i := 0; i < len(nets); i++ {
		for j := i + 1; j < len(nets); j++ {
			la1 := geo.Look(nets[i].Centroid(), hapPos.ECEF())
			la2 := geo.Look(nets[j].Centroid(), hapPos.ECEF())
			eta1 := hap.Transmissivity(channel.FSOGeometry{RangeM: la1.SlantRangeM, ElevationRad: la1.ElevationRad, HiAltM: p.HAPAltM})
			eta2 := hap.Transmissivity(channel.FSOGeometry{RangeM: la2.SlantRangeM, ElevationRad: la2.ElevationRad, HiAltM: p.HAPAltM})
			f := quantum.AnalyticBellFidelityBothArms(eta1, eta2)
			fmt.Fprintf(w, "  %s ↔ %s: fidelity %.4f\n", nets[i].Name, nets[j].Name, f)
		}
	}
	return nil
}
