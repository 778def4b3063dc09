package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func doc(allocs map[string]float64) *Doc {
	d := &Doc{}
	for _, name := range []string{"A", "B", "C"} { // fixed order
		if v, ok := allocs[name]; ok {
			m := map[string]float64{"ns/op": 1}
			if v >= 0 {
				m["allocs/op"] = v
			}
			d.Benchmarks = append(d.Benchmarks, Benchmark{Name: name, Metrics: m})
		}
	}
	return d
}

// TestAllocRegressions: the ratchet trips when 0 stops being 0 and when a
// count rises by more than 5 % and more than 8 allocations — both, so that
// neither a small benchmark's +3 nor a large one's +1 % fails the build.
// A negative value below stands for "ran without -benchmem".
func TestAllocRegressions(t *testing.T) {
	cases := []struct {
		name      string
		base, cur map[string]float64
		want      []string
	}{
		{"unchanged", map[string]float64{"A": 0, "B": 99}, map[string]float64{"A": 0, "B": 99}, nil},
		{"fell", map[string]float64{"A": 18117}, map[string]float64{"A": 98}, nil},
		{"zero allocates", map[string]float64{"A": 0}, map[string]float64{"A": 1}, []string{"A (0 -> 1 allocs/op)"}},
		{"small count, big ratio", map[string]float64{"A": 10}, map[string]float64{"A": 18}, nil},
		{"small count, over both", map[string]float64{"A": 10}, map[string]float64{"A": 19}, []string{"A (10 -> 19 allocs/op)"}},
		{"big count, small ratio", map[string]float64{"A": 10000}, map[string]float64{"A": 10500}, nil},
		{"big count, over both", map[string]float64{"A": 10000}, map[string]float64{"A": 10501}, []string{"A (10000 -> 10501 allocs/op)"}},
		{"the regression this rule is for", map[string]float64{"A": 99}, map[string]float64{"A": 18117}, []string{"A (99 -> 18117 allocs/op)"}},
		{"several, in run order", map[string]float64{"A": 0, "B": 100, "C": 100}, map[string]float64{"A": 2, "B": 104, "C": 200},
			[]string{"A (0 -> 2 allocs/op)", "C (100 -> 200 allocs/op)"}},
		{"new benchmark has no baseline", map[string]float64{"A": 5}, map[string]float64{"A": 5, "B": 1e6}, nil},
		{"baseline without -benchmem", map[string]float64{"A": -1}, map[string]float64{"A": 500}, nil},
		{"run without -benchmem", map[string]float64{"A": 0}, map[string]float64{"A": -1}, nil},
	}
	for _, tc := range cases {
		if got := allocRegressions(doc(tc.cur), doc(tc.base)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestParseMedian: the lines of one benchmark repeated by -count become one
// entry, in first-appearance order, holding each metric's median — the
// middle value of an odd count, the mean of the middle two of an even one —
// while a benchmark run once passes through as it was read.
func TestParseMedian(t *testing.T) {
	in := `goos: linux
pkg: repro
BenchmarkA-2   	     100	       300 ns/op	      16 B/op	       2 allocs/op
BenchmarkB-2   	      10	      7000 ns/op
BenchmarkA-2   	     300	       100 ns/op	      16 B/op	       2 allocs/op
BenchmarkA-2   	     200	       900 ns/op	      24 B/op	       3 allocs/op
BenchmarkC-2   	       1	        50 ns/op	         4.0 deliveries/op
BenchmarkC-2   	       3	        70 ns/op	         6.0 deliveries/op
PASS
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "A", Iterations: 200, Metrics: map[string]float64{"ns/op": 300, "B/op": 16, "allocs/op": 2}},
		{Name: "B", Iterations: 10, Metrics: map[string]float64{"ns/op": 7000}},
		{Name: "C", Iterations: 2, Metrics: map[string]float64{"ns/op": 60, "deliveries/op": 5}},
	}
	if !reflect.DeepEqual(doc.Benchmarks, want) {
		t.Fatalf("got %+v\nwant %+v", doc.Benchmarks, want)
	}
}

// TestBaselineIsCommitted: the baseline is the artifact as committed, not
// the working file a first regeneration already overwrote — so a second
// run does not rebase onto the first. Outside a checkout it is the file.
func TestBaselineIsCommitted(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	write := func(s string) {
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func() string {
		raw, err := readBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	write("outside")
	if got := read(); got != "outside" {
		t.Fatalf("outside a checkout: baseline %q, want the file", got)
	}
	git := func(args ...string) {
		cmd := exec.Command("git", append([]string{"-C", dir, "-c", "user.name=b", "-c", "user.email=b@b", "-c", "commit.gpgsign=false"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	git("init", "-q")
	if got := read(); got != "outside" {
		t.Fatalf("before the first commit: baseline %q, want the file", got)
	}
	write("committed")
	git("add", "BENCH.json")
	git("commit", "-q", "-m", "artifact")
	write("first regeneration")
	if got := read(); got != "committed" {
		t.Fatalf("after a regeneration: baseline %q, want the committed artifact", got)
	}
}
