// Command bench is the repository's benchmark: four closed-loop workloads
// over the real stack, booted in-process, with end-to-end metrics a lock
// client would see (-trace 0) and an outside-in per-layer breakdown
// (-trace 1). See README.md in this directory for every metric's
// definition and the reasons behind the workload and noise decisions.
//
// The driver runs
//
//	go run -C bench . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// from the repository root (the benchmark is a module of its own, so the go
// command needs this directory as its working directory); the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// output is the JSON object the driver reads from the last stdout line.
type output struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// Fixed phases around the measured window. The warm-up lets the first
// meals, the heartbeat detector's first rounds and (on ring_extract) the
// extraction's initial suspect→trust transitions pass before anything is
// timed; the set-up is repeated so setup_s is a median, not one sample.
const (
	serveWarmup = 3 * time.Second
	serveBoots  = 15
)

// runWorkload dispatches one workload by name.
func runWorkload(name string, seed int64, window time.Duration, traced bool, outDir string) (*result, error) {
	if name == "sim_campaign" {
		return runSim(simOpts{seed: seed, window: window, traced: traced, outDir: outDir, setups: simSetups})
	}
	for _, sp := range serveSpecs {
		if sp.name == name {
			return runServe(sp, serveOpts{
				seed: seed, boots: serveBoots, warmup: serveWarmup, window: window,
				traced: traced, outDir: outDir,
			})
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		workload  = flag.String("workload", "", "solo, ring_extract, ring_durable or sim_campaign")
		seed      = flag.Int64("seed", 1, "workload seed: sim campaign seeds and the clients' start stagger")
		seconds   = flag.Int("seconds", 20, "length of the measured window")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, spans written to <out>/spans-<workload>.json")
		outDir    = flag.String("out", "out", "directory for WAL data and span files")
		selfcheck = flag.Bool("selfcheck", false, "run every workload A/A and compare the two sets against BENCHMARK.json's bounds")
		sets      = flag.Int("sets", 2, "selfcheck: sets to compare")
		runs      = flag.Int("runs", 5, "selfcheck: runs per set and workload")
	)
	flag.Parse()

	if *selfcheck {
		os.Exit(selfCheck(*sets, *runs, *seconds, *seed, *workload))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res, err := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	metrics := res.endToEnd
	if *trace == 1 {
		metrics = res.layers
	}
	os.Exit(emit(res, metrics))
}

// emit prints every metric by name with its unit, the failures if any, and
// the JSON line last. The exit code is non-zero on any correctness failure.
func emit(res *result, metrics metricSet) int {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range res.failures {
		fmt.Println("FAIL:", f)
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
