package main

import (
	"reflect"
	"strconv"
	"time"

	"qntn/internal/netsim"
	"qntn/internal/orbit"
	"qntn/internal/qntn"
)

// walkerSlice is the simulated span of one walker1k-coverage pass.
const walkerSlice = 10 * time.Minute

// walkerSpec is the workload's constellation: two 504-satellite shells of
// 12 planes (53° at 550 km, 70° at 600 km) with phasing factor f, +grid
// inter-satellite links and the global ground set.
func walkerSpec(f int) qntn.WalkerSpec {
	shell := func(inc, alt float64) orbit.WalkerShell {
		return orbit.WalkerShell{TotalSats: 504, Planes: 12, Phasing: f, InclinationDeg: inc, AltitudeM: alt}
	}
	return qntn.WalkerSpec{
		Shells:  []orbit.WalkerShell{shell(53, 550e3), shell(70, 600e3)},
		ISLGrid: true,
		Ground:  qntn.GlobalGroundNetworks(),
	}
}

// walkerVariant maps a seed to the phasing factor it selects.
func walkerVariant(seed int64) int { return int(((seed % 12) + 12) % 12) }

// coveragePin extracts the pinned fields of a coverage result.
func coveragePin(res *qntn.CoverageResult) pin {
	return pin{Steps: res.Steps, CoveredSteps: res.CoveredSteps, Intervals: len(res.Intervals), Percent: res.Percent()}
}

// walkerBench is walker1k-coverage: stepped Coverage over a fixed slice of
// the day, checked against the outputs pinned for the seed's phasing.
type walkerBench struct {
	variant int
	want    pin
	pinned  bool
	sc      *qntn.Scenario
	scenS   []float64
	// lastAlloc is the bytes the last pass allocated.
	lastAlloc uint64
}

func newWalkerBench(cfg *config, seed int64) *walkerBench {
	v := walkerVariant(seed)
	w, ok := cfg.Pins["walker1k-coverage"][strconv.Itoa(v)]
	return &walkerBench{variant: v, want: w, pinned: ok}
}

func (b *walkerBench) setup() error {
	t0 := time.Now()
	sc, err := qntn.NewWalker(walkerSpec(b.variant), qntn.DefaultParams())
	if err != nil {
		return err
	}
	b.scenS = append(b.scenS, time.Since(t0).Seconds())
	b.sc = sc
	_, err = sc.Coverage(walkerSlice)
	return err
}

func (b *walkerBench) close() {}

// pass runs one untraced Coverage call and checks it against the pin.
func (b *walkerBench) pass(r *result) (time.Duration, *qntn.CoverageResult) {
	r.attempted++
	a0, t0 := allocated(), time.Now()
	res, err := b.sc.Coverage(walkerSlice)
	d := time.Since(t0)
	b.lastAlloc = allocated() - a0
	if err != nil {
		r.fail("walker coverage: %v", err)
		return d, nil
	}
	if got := coveragePin(res); !b.pinned || !samePin(got, b.want) {
		r.fail("walker coverage F=%d: got %+v, pinned %+v (pinned=%v)", b.variant, got, b.want, b.pinned)
	}
	return d, res
}

func (b *walkerBench) measure(deadline time.Time, r *result) {
	for time.Now().Before(deadline) {
		d, res := b.pass(r)
		if res != nil {
			r.ops = append(r.ops, opSample{latency: d, ttfb: d, busy: d, steps: res.Steps, alloc: b.lastAlloc})
		}
	}
}

// traced alternates an untraced Coverage call with a traced replay of the
// same slice through the public per-step calls, and checks that the replay
// reaches the same covered-step count.
func (b *walkerBench) traced(deadline time.Time, r *result, rec *recorder) {
	net := b.sc.Net
	g := replayGraph(net)
	step := b.sc.Params.StepInterval
	movers := len(net.ByKind(netsim.Satellite))
	var buf []edge
	var untraced, overhead, unattributed []float64
	var st topoStats
	for pass := int64(0); time.Now().Before(deadline); pass++ {
		d, res := b.pass(r)
		if res == nil {
			continue
		}
		r.attempted++
		root := rec.begin("pass", noParent, pass)
		covered := 0
		for k := 0; time.Duration(k)*step < walkerSlice; k++ {
			sh := rec.begin("step", root, int64(k))
			if err := replayTopology(net, g, time.Duration(k)*step, rec, sh, int64(k), &buf, &st); err != nil {
				r.fail("walker replay: %v", err)
				break
			}
			h := rec.begin("bridged", sh, int64(k))
			if b.sc.Bridged(g) {
				covered++
			}
			rec.end(h)
			rec.end(sh)
		}
		rec.end(root)
		if covered != res.CoveredSteps {
			r.fail("walker replay covered %d steps, Coverage %d", covered, res.CoveredSteps)
		}
		untraced = append(untraced, d.Seconds())
	}
	passes := rec.passes()
	for i, p := range passes {
		if i < len(untraced) {
			overhead = append(overhead, p.wall/untraced[i]-1)
		}
		unattributed = append(unattributed, p.unattributed())
	}
	setBusy(r, passes, map[string]string{
		"ephemeris": "ephemeris.busy_s", "candidates": "candidates.busy_s", "physics": "physics.busy_s",
		"graph": "graph.busy_s", "bridged": "bridged.busy_s",
	})
	setTopoCounts(r, &st, movers)
	r.setLayer("setup.scenario_s", b.scenS...)
	r.setLayer("trace.unattributed_frac", unattributed...)
	r.setLayer("trace.overhead_frac", overhead...)
}

// setBusy records each layer's busy time: per pass, the summed self time of
// the spans mapped to it; over passes, the median.
func setBusy(r *result, passes []passTimes, layerOf map[string]string) {
	per := make(map[string][]float64)
	for _, p := range passes {
		sums := make(map[string]float64)
		for span, layer := range layerOf {
			sums[layer] += p.self[span]
		}
		for layer, v := range sums {
			per[layer] = append(per[layer], v)
		}
	}
	for layer, xs := range per {
		r.setLayer(layer, xs...)
	}
}

// setTopoCounts records the per-step topology counts of a replay.
func setTopoCounts(r *result, st *topoStats, movers int) {
	if st.steps == 0 || st.visited == 0 {
		return
	}
	steps, visited := float64(st.steps), float64(st.visited)
	if movers > 0 {
		r.setLayer("ephemeris.movers", float64(movers))
	}
	r.setLayer("candidates.visited_frac", visited/float64(st.pairs))
	r.setLayer("physics.pairs", visited/steps)
	r.setLayer("physics.admit_frac", float64(st.admitted)/visited)
	r.setLayer("physics.horizon_reject_frac", float64(st.horizon)/visited)
	r.setLayer("physics.range_reject_frac", float64(st.rangeRej)/visited)
	r.setLayer("graph.edges", float64(st.edges)/steps)
}

// day108Variant maps a seed to its inclination tilt in 0.05° steps within
// ±0.4°.
func day108Variant(seed int64) float64 {
	return 0.05 * float64(((seed%16)+16)%16-8)
}

// day108Bench is day108-coverage: event-driven FullDayCoverage on
// SpaceGround-108, every result compared with a stepped run of the same
// scenario made during set-up.
type day108Bench struct {
	params qntn.Params
	sc     *qntn.Scenario
	want   *qntn.CoverageResult
	scenS  []float64
	// lastAlloc is the bytes the last pass allocated.
	lastAlloc uint64
}

func newDay108Bench(seed int64) *day108Bench {
	p := qntn.DefaultParams()
	p.InclinationDeg += day108Variant(seed)
	p.EventDriven = true
	return &day108Bench{params: p}
}

func (b *day108Bench) setup() error {
	t0 := time.Now()
	sc, err := qntn.NewSpaceGround(108, b.params)
	if err != nil {
		return err
	}
	b.scenS = append(b.scenS, time.Since(t0).Seconds())
	b.sc = sc
	_, err = sc.FullDayCoverage()
	return err
}

// reference runs the stepped oracle once; it is a correctness check, not
// set-up work, so it stays out of the timed set-up.
func (b *day108Bench) reference() error {
	if b.want != nil {
		return nil
	}
	p := b.params
	p.EventDriven = false
	sc, err := qntn.NewSpaceGround(108, p)
	if err != nil {
		return err
	}
	b.want, err = sc.FullDayCoverage()
	return err
}

func (b *day108Bench) close() {}

func (b *day108Bench) pass(r *result) (time.Duration, *qntn.CoverageResult) {
	r.attempted++
	a0, t0 := allocated(), time.Now()
	res, err := b.sc.FullDayCoverage()
	d := time.Since(t0)
	b.lastAlloc = allocated() - a0
	if err != nil {
		r.fail("day108 coverage: %v", err)
		return d, nil
	}
	if !reflect.DeepEqual(res, b.want) {
		r.fail("day108 event-driven coverage %.4f%% differs from stepped %.4f%%", res.Percent(), b.want.Percent())
	}
	return d, res
}

func (b *day108Bench) measure(deadline time.Time, r *result) {
	if err := b.reference(); err != nil {
		r.attempted++
		r.fail("day108 stepped reference: %v", err)
		return
	}
	for time.Now().Before(deadline) {
		d, res := b.pass(r)
		if res != nil {
			r.ops = append(r.ops, opSample{latency: d, ttfb: d, busy: d, steps: res.Steps, alloc: b.lastAlloc})
		}
	}
}

// traced times VisibilityWindows and the event-driven Coverage call as two
// spans of one pass, alternating with an untraced Coverage call.
func (b *day108Bench) traced(deadline time.Time, r *result, rec *recorder) {
	if err := b.reference(); err != nil {
		r.attempted++
		r.fail("day108 stepped reference: %v", err)
		return
	}
	var untraced, overhead, counts []float64
	loopSpans := make(map[int64]int32)
	for pass := int64(0); time.Now().Before(deadline); pass++ {
		d, res := b.pass(r)
		if res == nil {
			continue
		}
		r.attempted++
		root := rec.begin("pass", noParent, pass)
		h := rec.begin("windows", root, pass)
		wins, err := b.sc.VisibilityWindows(orbit.Day)
		rec.end(h)
		if err != nil {
			r.fail("day108 windows: %v", err)
		}
		n := 0
		for _, pw := range wins {
			n += len(pw.Windows)
		}
		counts = append(counts, float64(n))
		h = rec.begin("eventloop", root, pass)
		res2, err := b.sc.FullDayCoverage()
		rec.end(h)
		loopSpans[pass] = h
		rec.end(root)
		if err != nil || !reflect.DeepEqual(res2, b.want) {
			r.fail("day108 traced coverage differs from stepped (err %v)", err)
		}
		untraced = append(untraced, d.Seconds())
	}
	passes := rec.passes()
	for i := range passes {
		if i < len(untraced) {
			s := rec.spans[loopSpans[int64(i)]]
			overhead = append(overhead, float64(s.End-s.Start)/1e9/untraced[i]-1)
		}
	}
	setBusy(r, passes, map[string]string{"windows": "windows.busy_s", "eventloop": "eventloop.busy_s"})
	var unattributed []float64
	for _, p := range passes {
		unattributed = append(unattributed, p.unattributed())
	}
	r.setLayer("windows.count", counts...)
	r.setLayer("setup.scenario_s", b.scenS...)
	r.setLayer("trace.unattributed_frac", unattributed...)
	r.setLayer("trace.overhead_frac", overhead...)
}
