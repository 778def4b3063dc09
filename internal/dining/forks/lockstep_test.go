package forks_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestEventualLockStep demonstrates the paper's remark that a 1-fair
// transformation turns WF-◇WX dining on a clique into an eventually
// lock-step scheduler: with K=1 and every diner perpetually re-hungry, the
// converged suffix schedules the diners as a repeating round-robin — each
// diner eats exactly once per "round" of n meals.
func TestEventualLockStep(t *testing.T) {
	const n = 3
	for _, seed := range []int64{1, 2} {
		log := &trace.Log{}
		g := graph.Clique(n)
		k := sim.NewKernel(n, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 500, PreMax: 60, PostMax: 6}))
		oracle := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
		tbl := forks.New(k, g, "fair", oracle, forks.Config{Fair: 1})
		for _, p := range g.Nodes() {
			// Perpetual contention: think for a single tick.
			dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
				ThinkMin: 1, ThinkMax: 1, EatMin: 3, EatMax: 8,
			})
		}
		end := k.Run(50000)

		// 1-fairness in the suffix.
		if over := checker.KFairness(log, g, "fair", 1, end/2, end); len(over) > 0 {
			t.Fatalf("seed %d: 1-fairness violated in the suffix: %v", seed, over)
		}
		// Lock-step: order the suffix meals by start time; every window of
		// n consecutive meals contains every diner exactly once.
		type meal struct {
			p  sim.ProcID
			at sim.Time
		}
		var meals []meal
		eat := log.Sessions("eating")
		for _, p := range g.Nodes() {
			for _, iv := range eat[trace.SessionKey{Inst: "fair", P: p}] {
				if iv.Start >= end/2 && iv.Closed() {
					meals = append(meals, meal{p: p, at: iv.Start})
				}
			}
		}
		if len(meals) < 4*n {
			t.Fatalf("seed %d: only %d suffix meals", seed, len(meals))
		}
		for i := 1; i < len(meals); i++ {
			if meals[i].at < meals[i-1].at {
				// Sort by insertion is per-diner; merge-sort by time.
				for j := i; j > 0 && meals[j].at < meals[j-1].at; j-- {
					meals[j], meals[j-1] = meals[j-1], meals[j]
				}
			}
		}
		// Drop a possible partial round at each end, then check windows.
		for i := 0; i+n <= len(meals); i += n {
			seen := map[sim.ProcID]bool{}
			for _, m := range meals[i : i+n] {
				seen[m.p] = true
			}
			if len(seen) != n {
				t.Fatalf("seed %d: meals %d..%d are not a permutation round: %v",
					seed, i, i+n-1, meals[i:i+n])
			}
		}
	}
}
