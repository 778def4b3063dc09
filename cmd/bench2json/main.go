// Command bench2json converts `go test -bench` output on stdin into a
// machine-readable JSON document, the unit of the repo's performance
// trajectory: `make bench` regenerates BENCH_kernel.json and
// BENCH_experiments.json, CI archives them per commit, and each fresh run
// embeds the committed file (via -baseline) so every artifact carries its
// own before/after deltas. A benchmark run more than once (`-count`) is
// reduced to the median of each metric. ns/op deltas are informational —
// the hosts that run this vary — but allocation counts are exact: after
// writing the artifact, bench2json exits 1 if a benchmark's allocs/op rose
// against the baseline (see allocRegressions for the tolerance), so `make
// bench` and `make bench-serve` fail in the change that causes it.
//
// The baseline is the -baseline file as committed at git's HEAD, and the
// working file only outside a checkout or before its first commit, so
// regenerating an artifact twice compares against the parent both times
// instead of against the first regeneration.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 | bench2json -o BENCH.json -baseline BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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
		if raw, err := readBaseline(*baseline); err == nil {
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

// readBaseline returns path as committed at HEAD of the checkout holding
// it, or, when git cannot show it, the file on disk.
func readBaseline(path string) ([]byte, error) {
	dir, file := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	if raw, err := exec.Command("git", "-C", dir, "show", "HEAD:./"+file).Output(); err == nil {
		return raw, nil
	}
	return os.ReadFile(path)
}

// parse reads `go test -bench` text: header lines (goos/goarch/cpu/pkg) and
// benchmark result lines of the form
//
//	BenchmarkName-8   123456   78.9 ns/op   2.0 deliveries/op   0 B/op   0 allocs/op
//
// Unrecognized lines (PASS, ok, test log output) are skipped. Lines of one
// benchmark repeated by -count become one entry, at its first line's place,
// holding the median of each metric and of the iteration counts.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	runs := make(map[string][]Benchmark)
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
		if runs[b.Name] == nil {
			doc.Benchmarks = append(doc.Benchmarks, Benchmark{Name: b.Name})
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	for i := range doc.Benchmarks {
		doc.Benchmarks[i] = medianOf(runs[doc.Benchmarks[i].Name])
	}
	return doc, nil
}

// medianOf reduces repeated runs of one benchmark to one: the median of the
// iteration counts and of each metric, over the runs that report it.
func medianOf(runs []Benchmark) Benchmark {
	vals := make(map[string][]float64)
	iters := make([]float64, len(runs))
	for i, r := range runs {
		iters[i] = float64(r.Iterations)
		for m, v := range r.Metrics {
			vals[m] = append(vals[m], v)
		}
	}
	out := Benchmark{Name: runs[0].Name, Iterations: int64(median(iters)), Metrics: make(map[string]float64, len(vals))}
	for m, vs := range vals {
		out.Metrics[m] = median(vs)
	}
	return out
}

// median sorts vs and returns its middle value, or the mean of the middle
// two.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
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
