// Command bench2json converts `go test -bench` output on stdin into a
// machine-readable JSON document, the unit of the repo's performance
// trajectory: `make bench` regenerates BENCH_kernel.json and
// BENCH_experiments.json, CI archives them per commit, and each fresh run
// embeds the previously committed file (via -baseline) so every artifact
// carries its own before/after deltas. ns/op deltas are informational — the
// hosts that run this vary — but allocation counts are exact: after writing
// the artifact, bench2json exits 1 if a benchmark's allocs/op rose against
// the baseline (see allocRegressions for the tolerance), so `make bench` and
// `make bench-serve` fail in the change that causes it.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem | bench2json -o BENCH.json -baseline BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result: its name (with the Benchmark
// prefix and -cpu suffix stripped) and every reported metric, standard
// (ns/op, B/op, allocs/op) and custom (deliveries/op, speedup, ...) alike.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the serialized trajectory point.
type Doc struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Baseline is the prior trajectory point this run is compared against
	// (the previously committed artifact, or a hand-recorded seed baseline).
	Baseline *Doc `json:"baseline,omitempty"`
	// Deltas maps "bench.metric" to new/old ratios for every metric present
	// in both this run and the baseline (e.g. "KernelEvents.allocs/op": 0).
	Deltas map[string]float64 `json:"deltas,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "prior JSON artifact to embed and diff against (missing file is not an error)")
	flag.Parse()
	var regressed []string

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if raw, err := os.ReadFile(*baseline); err == nil {
			var base Doc
			if err := json.Unmarshal(raw, &base); err != nil {
				fmt.Fprintln(os.Stderr, "bench2json: baseline:", err)
				os.Exit(1)
			}
			base.Baseline = nil // keep one generation of history, not a chain
			base.Deltas = nil
			doc.Baseline = &base
			doc.Deltas = deltas(doc, &base)
			regressed = allocRegressions(doc, &base)
		}
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if len(regressed) > 0 {
		fmt.Fprintln(os.Stderr, "bench2json: allocs/op rose against the baseline:", strings.Join(regressed, ", "))
		os.Exit(1)
	}
}

// The allocation ratchet's tolerance: a benchmark whose iterations differ
// (seeds that follow b.N, amortised growth) wobbles by a few allocations or
// a few percent, so a rise must exceed both to count. A baseline of 0 has no
// tolerance: 0 stays 0.
const (
	allocSlackRatio = 0.05
	allocSlackCount = 8
)

// allocRegressions lists, as "name (old -> new allocs/op)", the benchmarks
// whose allocs/op rose against the baseline: from 0 to anything, or by more
// than allocSlackRatio and more than allocSlackCount.
func allocRegressions(cur, base *Doc) []string {
	prior := make(map[string]float64)
	for _, b := range base.Benchmarks {
		if v, ok := b.Metrics["allocs/op"]; ok {
			prior[b.Name] = v
		}
	}
	var out []string
	for _, b := range cur.Benchmarks {
		old, ok := prior[b.Name]
		v, measured := b.Metrics["allocs/op"]
		if !ok || !measured {
			continue
		}
		if (old == 0 && v > 0) || (v > old*(1+allocSlackRatio) && v > old+allocSlackCount) {
			out = append(out, fmt.Sprintf("%s (%g -> %g allocs/op)", b.Name, old, v))
		}
	}
	return out
}

// parse reads `go test -bench` text: header lines (goos/goarch/cpu/pkg) and
// benchmark result lines of the form
//
//	BenchmarkName-8   123456   78.9 ns/op   2.0 deliveries/op   0 B/op   0 allocs/op
//
// Unrecognized lines (PASS, ok, test log output) are skipped.
func parse(r *os.File) (*Doc, error) {
	doc := &Doc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       trimName(fields[0]),
			Iterations: iters,
			Metrics:    make(map[string]float64),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value %q in %q", fields[i], line)
			}
			b.Metrics[fields[i+1]] = v
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	return doc, nil
}

// trimName strips the Benchmark prefix and the -GOMAXPROCS suffix.
func trimName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}

// deltas computes new/old ratios for every (bench, metric) present in both
// documents. A zero baseline value with a zero new value ratios to 1; a zero
// baseline with a non-zero new value is omitted (the ratio is undefined).
func deltas(cur, base *Doc) map[string]float64 {
	prior := make(map[string]map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		prior[b.Name] = b.Metrics
	}
	out := make(map[string]float64)
	for _, b := range cur.Benchmarks {
		pm, ok := prior[b.Name]
		if !ok {
			continue
		}
		for metric, v := range b.Metrics {
			pv, ok := pm[metric]
			if !ok {
				continue
			}
			switch {
			case pv != 0:
				out[b.Name+"."+metric] = v / pv
			case v == 0:
				out[b.Name+"."+metric] = 1
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
