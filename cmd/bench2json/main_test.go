package main

import (
	"reflect"
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
