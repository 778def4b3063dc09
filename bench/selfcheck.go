package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles is Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the driver's acceptance rule uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runChild runs this binary once on one workload, echoes what it printed
// above the JSON line and parses that line.
func runChild(workload string, seed int64, seconds int) (output, error) {
	var out output
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	for _, line := range lines[:len(lines)-1] {
		fmt.Println("   ", line)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return out, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	return out, nil
}

// selfCheck runs every workload sets×runs times on the same code, the sets
// interleaved and every run on its own seed, and compares the sets the way
// the driver will: each set's quartile spread as a share of its median must
// stay within the metric's bound (setup_s excepted), and no set's median
// may be worse than the first's by more than the bound. It returns the
// process exit code.
func selfCheck(sets, runs, seconds int, seed int64, only string) int {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck runs from the bench directory:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	bad := 0
	var table bytes.Buffer
	fmt.Fprintf(&table, "| workload | metric | median A | median B | B worse by | spread A | spread B | bound |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range bf.Workloads {
		if only != "" && only != w.Name {
			continue
		}
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = map[string][]float64{}
		}
		for r := 0; r < runs; r++ {
			for s := 0; s < sets; s++ {
				fmt.Printf("%s set %c run %d:\n", w.Name, 'A'+s, r)
				out, err := runChild(w.Name, seed+int64(r*sets+s), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !out.Correct || out.Failed != 0 {
					fmt.Printf("%s: run %d of set %d failed %d of %d ops\n", w.Name, r, s, out.Failed, out.Attempted)
					bad++
				}
				for name, m := range out.Metrics {
					values[s][name] = append(values[s][name], m.Value)
				}
			}
		}
		for _, e := range bf.EndToEnd {
			_, medA, _ := quartiles(values[0][e.Name])
			spread := make([]float64, sets)
			for s := 0; s < sets; s++ {
				q1, q2, q3 := quartiles(values[s][e.Name])
				spread[s] = (q3 - q1) / q2
				if e.Name != "setup_s" && spread[s] > e.Bound {
					bad++
				}
			}
			_, medB, _ := quartiles(values[sets-1][e.Name])
			worse := (medB - medA) / medA
			if e.Better == "higher" {
				worse = -worse
			}
			if worse > e.Bound {
				bad++
			}
			fmt.Fprintf(&table, "| %s | %s | %.4g | %.4g | %+.1f %% | %.1f %% | %.1f %% | %.0f %% |\n",
				w.Name, e.Name, medA, medB, 100*worse, 100*spread[0], 100*spread[sets-1], 100*e.Bound)
		}
	}
	fmt.Print(table.String())
	if bad > 0 {
		fmt.Printf("selfcheck: %d finding(s) outside the bounds\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every metric within its bound")
	return 0
}
