package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"qntn/internal/qntn"
)

// pinMain prints the "pins" block of workloads.json: the walker coverage
// result for every phasing factor and the serve result for every seed
// variant, computed by the code as it stands. Run it only on a commit whose
// outputs are trusted; the benchmark fails any run that disagrees.
func pinMain(args []string) int {
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	pins := map[string]map[string]pin{"walker1k-coverage": {}, "serve108-protocol": {}}
	for f := range 12 {
		sc, err := qntn.NewWalker(walkerSpec(f), qntn.DefaultParams())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res, err := sc.Coverage(walkerSlice)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		pins["walker1k-coverage"][strconv.Itoa(f)] = coveragePin(res)
	}
	for s := range int64(16) {
		b, err := newServeBench(cfg, s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		sc, err := qntn.NewSpaceGround(108, b.params())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res, err := sc.RunServe(b.cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		pins["serve108-protocol"][strconv.FormatInt(b.variant, 10)] = servePin(res)
	}
	out, err := json.MarshalIndent(map[string]any{"pins": pins}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
