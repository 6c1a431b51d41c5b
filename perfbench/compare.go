package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// series maps workload → metric → per-run values in file order.
type series map[string]map[string][]float64

// readRecords loads the record lines of a result file. Runs of the traced
// pass and of the untraced pass are kept apart by suffixing the workload.
func readRecords(path string) (series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(series)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, `{"record"`) {
			continue
		}
		var v struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		w := v.Record.Workload
		if v.Record.Trace == 1 {
			w += " (traced)"
		}
		if out[w] == nil {
			out[w] = make(map[string][]float64)
		}
		for name, m := range v.Record.Metrics {
			out[w][name] = append(out[w][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict classifies one (metric, workload) pair by the paired-runs rule: a
// side that wins at least nine tenths of the pairs, with medians further
// apart than the base runs' interquartile range, is improved or worse;
// anything else is unresolved. bound > 0 additionally flags a new median
// worse than the base median by more than that share.
type verdict struct {
	pairs, wins, losses  int
	baseMed, newMed, iqr float64
	class                string
	overBound            bool
}

func classify(base, cand []float64, higherBetter bool, bound float64) verdict {
	v := verdict{pairs: min(len(base), len(cand)), baseMed: median(base), newMed: median(cand)}
	for i := 0; i < v.pairs; i++ {
		switch {
		case cand[i] == base[i]:
		case (cand[i] > base[i]) == higherBetter:
			v.wins++
		default:
			v.losses++
		}
	}
	if len(base) > 1 {
		q := quartiles(base)
		v.iqr = q[2] - q[0]
	}
	apart := math.Abs(v.newMed-v.baseMed) > v.iqr
	need := int(math.Ceil(0.9 * float64(v.pairs)))
	switch {
	case v.pairs > 0 && apart && v.wins >= need:
		v.class = "improved"
	case v.pairs > 0 && apart && v.losses >= need:
		v.class = "worse"
	default:
		v.class = "unresolved"
	}
	if bound > 0 && v.baseMed != 0 {
		worse := (v.baseMed - v.newMed) / math.Abs(v.baseMed)
		if !higherBetter {
			worse = -worse
		}
		v.overBound = worse > bound
	}
	return v
}

// compareMain prints, per workload and metric, the base and new medians,
// the pairs won and lost, the verdict and the bound check. It exits 1 when
// any end-to-end metric is worse than its BENCHMARK.json bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--benchmark BENCHMARK.json] BASE.jsonl NEW.jsonl")
		return 2
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var def benchmarkFile
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", *benchPath, err)
		return 1
	}
	higher := make(map[string]bool)
	bounds := make(map[string]float64)
	for _, m := range def.EndToEnd {
		higher[m.Name], bounds[m.Name] = m.Better == "higher", m.Bound
	}
	for _, m := range def.PerLayer {
		higher[m.Name] = m.Better == "higher"
	}
	higher["requests_per_s"] = true
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cand, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase p50\tbase IQR\tnew p50\tchange\tpairs\twon\tlost\tverdict\tbound")
	exit := 0
	for _, w := range sortedKeys(base) {
		for _, m := range sortedKeys(base[w]) {
			nv, ok := cand[w][m]
			if !ok {
				continue
			}
			v := classify(base[w][m], nv, higher[m], bounds[m])
			bound := "-"
			if b := bounds[m]; b > 0 {
				bound = fmt.Sprintf("ok (%.0f%%)", 100*b)
				if v.overBound {
					bound = fmt.Sprintf("EXCEEDED (%.0f%%)", 100*b)
					exit = 1
				}
			}
			change := "-"
			if v.baseMed != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(v.newMed-v.baseMed)/math.Abs(v.baseMed))
			}
			note := v.class
			if v.pairs < 10 {
				note += " (<10 pairs)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.3g\t%.6g\t%s\t%d\t%d\t%d\t%s\t%s\n",
				w, m, v.baseMed, v.iqr, v.newMed, change, v.pairs, v.wins, v.losses, note, bound)
		}
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return exit
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
