package core_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzPairMonitorSchedules drives the full reduction under fuzzer-chosen
// message schedules (every delay comes from the fuzz input) and checks that
// the paper's configuration invariants hold at every poll and that the
// oracle's verdict matches the crash schedule at the end. Under plain
// `go test` the seed corpus runs; under `go test -fuzz=FuzzPairMonitor`
// the schedule space is explored coverage-guided.
func FuzzPairMonitorSchedules(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(-1))
	f.Add([]byte{0, 0, 0, 0}, int64(2000))
	f.Add([]byte{255, 1, 128, 7, 9, 200}, int64(500))
	f.Add([]byte{13, 247, 13, 247, 13}, int64(-1))
	f.Fuzz(func(t *testing.T, pattern []byte, crashAt int64) {
		if len(pattern) > 4096 {
			t.Skip()
		}
		log := &trace.Log{}
		k := sim.NewKernel(2,
			sim.WithSeed(1),
			sim.WithTracer(log),
			sim.WithDelay(&sim.BytesDelay{Pattern: pattern, Max: 32}),
		)
		// A cheap always-accurate oracle keeps the black box wait-free under
		// arbitrary schedules without needing GST tuning.
		oracle := detector.Perfect{K: k}
		m := core.NewPairMonitor(k, 0, 1, forks.Factory(oracle, forks.Config{}), "xp")
		violations := 0
		m.WatchInvariants(23, 1<<62, func(at sim.Time, what string) {
			violations++
			t.Errorf("invariant violated at t=%d: %s", at, what)
		})
		crashed := false
		if crashAt > 0 {
			crashed = true
			k.CrashAt(1, sim.Time(crashAt%8000)+1)
		}
		end := k.Run(20000)
		if violations > 0 {
			t.Fatalf("%d invariant violations under schedule %v", violations, pattern)
		}
		if crashed && !m.Suspect() {
			t.Fatalf("subject crashed but monitor trusts (end=%d)", end)
		}
		if !crashed && m.Suspect() {
			// With a perfect oracle the box makes no scheduling mistakes, so
			// the reduction must have converged to trust by t=20000.
			t.Fatalf("no crash but monitor suspects at end=%d", end)
		}
	})
}

// FuzzForksSchedules checks the dining black box alone under fuzzer-chosen
// schedules: fork conservation, no illegal state transitions (the state
// machine panics on them), exclusion between trusting live diners, and
// wait-freedom, where a deference deadlock of the fairness throttle would
// show as starvation. crashSel picks the crash victim (crashSel%3 != 0)
// and the overtaking bound Fair = crashSel/3%3.
func FuzzForksSchedules(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(0))
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1}, uint8(2))
	f.Add([]byte{7, 1, 30, 2, 18, 5}, uint8(3))
	f.Add([]byte{31, 0, 16, 8, 24, 4, 12}, uint8(7))
	f.Fuzz(func(t *testing.T, pattern []byte, crashSel uint8) {
		if len(pattern) > 4096 {
			t.Skip()
		}
		log := &trace.Log{}
		g := graph.Ring(4)
		k := sim.NewKernel(4,
			sim.WithSeed(2),
			sim.WithTracer(log),
			sim.WithDelay(&sim.BytesDelay{Pattern: pattern, Max: 32}),
		)
		oracle := detector.Perfect{K: k}
		tbl := forks.New(k, g, "fk", oracle, forks.Config{Fair: int(crashSel / 3 % 3)})
		for _, p := range g.Nodes() {
			dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
				ThinkMin: 3, ThinkMax: 20, EatMin: 2, EatMax: 8,
			})
		}
		if crashSel%3 != 0 {
			k.CrashAt(sim.ProcID(crashSel%4), 3000)
		}
		end := k.Run(15000)
		for _, e := range g.Edges() {
			if tbl.HoldsFork(e[0], e[1]) && tbl.HoldsFork(e[1], e[0]) {
				t.Fatalf("fork (%d,%d) duplicated under schedule %v", e[0], e[1], pattern)
			}
		}
		// With a perfect oracle there are no suspicion mistakes, so the run
		// must be perpetually exclusive.
		if rep, err := checker.PerpetualWeakExclusion(log, g, "fk", end); err != nil {
			t.Fatalf("exclusion violated with a perfect oracle: %v", rep.Violations)
		}
		if starved := checker.WaitFreedom(log, "fk", end-3000, end); len(starved) > 0 {
			t.Fatalf("starvation under schedule %v: %v", pattern, starved)
		}
	})
}
