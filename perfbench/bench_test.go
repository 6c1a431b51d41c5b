package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 5.5, 8.375}},
	}
	for _, c := range cases {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestClassify(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if v := classify(base, faster, true, 0.1); v.class != "worse" || !v.overBound {
		t.Errorf("higher-better drop: %+v", v)
	}
	if v := classify(base, faster, false, 0.1); v.class != "improved" || v.overBound {
		t.Errorf("lower-better drop: %+v", v)
	}
	noisy := []float64{90, 110, 95, 105, 100, 99, 101, 97, 103, 100}
	if v := classify(base, noisy, true, 0.1); v.class != "unresolved" || v.overBound {
		t.Errorf("noise: %+v", v)
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json names exactly
// the workloads and metrics the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if _, ok := cfg.Workloads[w.Name]; !ok {
			t.Errorf("workload %s is not documented in workloads.json", w.Name)
		}
		if _, err := newBench(w.Name, cfg, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	if len(names) != len(cfg.Workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, workloads.json %d", len(names), len(cfg.Workloads))
	}

	want := make(map[string]string)
	for _, m := range def.EndToEnd {
		want[m.Name] = m.Unit
	}
	r := &result{setup: []float64{1}, ops: []opSample{{latency: time.Millisecond, busy: time.Millisecond, steps: 1, scale: 1}}, attempted: 1, setupScale: []float64{1}}
	got := make(map[string]string)
	for _, m := range endToEndMetrics(r) {
		if !m.extra {
			got[m.name] = m.unit
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics: program %v, BENCHMARK.json %v", got, want)
	}

	if len(def.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(def.PerLayer), len(layerDefs))
	}
	for i, m := range def.PerLayer {
		if d := layerDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

func TestDaemonPoolKeepsMixProportions(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	count := func(seed int64) (map[string]int, []string) {
		pool, err := buildPool(cfg.Daemon, seed)
		if err != nil {
			t.Fatal(err)
		}
		kinds := make(map[string]int)
		var bodies []string
		for _, pq := range pool {
			kinds[pq.q.Arch+"/"+pq.q.Horizon]++
			bodies = append(bodies, string(pq.body))
		}
		return kinds, bodies
	}
	k1, b1 := count(1)
	k2, b2 := count(2)
	if !reflect.DeepEqual(k1, k2) {
		t.Errorf("mix proportions differ between seeds: %v vs %v", k1, k2)
	}
	if reflect.DeepEqual(b1, b2) {
		t.Error("seeds 1 and 2 drew the same queries")
	}
	_, again := count(1)
	if !reflect.DeepEqual(b1, again) {
		t.Error("seed 1 drew different queries twice")
	}
	sort.Strings(b1)
	for i := 1; i < len(b1); i++ {
		if b1[i] == b1[i-1] {
			t.Errorf("duplicate query in pool: %s", b1[i])
		}
	}
}

// sleepBench spends each measure call asleep and records one operation.
type sleepBench struct{ setups int }

func (s *sleepBench) setup() error { s.setups++; return nil }
func (s *sleepBench) measure(deadline time.Time, r *result) {
	time.Sleep(time.Until(deadline))
	r.ops = append(r.ops, opSample{busy: time.Millisecond, steps: 1})
}
func (s *sleepBench) traced(time.Time, *result, *recorder) {}
func (s *sleepBench) close()                               {}

func TestMeasureCalibratedScalesEveryOperation(t *testing.T) {
	c := &calibrator{}
	b := &sleepBench{}
	r := &result{}
	if err := measureCalibrated(b, 3*time.Second, r, c); err != nil {
		t.Fatal(err)
	}
	// A 3 s window: set-ups at 0 s and 2 s, six 0.5 s segments, and a
	// calibration before the first set-up, after each set-up and after
	// each segment.
	if b.setups != 2 || len(r.setup) != 2 || len(r.setupScale) != 2 {
		t.Errorf("%d set-ups, %d set-up times, %d set-up scales; want 2 each", b.setups, len(r.setup), len(r.setupScale))
	}
	if len(r.ops) != 6 {
		t.Errorf("%d operations, want 6", len(r.ops))
	}
	if want := calibReps * (1 + 2 + 6); len(c.times) != want {
		t.Errorf("%d reference runs, want %d", len(c.times), want)
	}
	for i, op := range r.ops {
		if !(op.scale > 0) || math.IsInf(op.scale, 0) {
			t.Errorf("operation %d: scale %v", i, op.scale)
		}
	}
}
