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

// TestThrottleReleasedByCrash: a greedy diner throttled behind an older
// hungry neighbor must not starve when that neighbor crashes — suspicion
// exempts the dead from the fairness bound.
func TestThrottleReleasedByCrash(t *testing.T) {
	log := &trace.Log{}
	g := graph.Pair(0, 1)
	k := sim.NewKernel(2, sim.WithSeed(11), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 400, PreMax: 50, PostMax: 6}))
	oracle := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
	tbl := forks.New(k, g, "fair", oracle, forks.Config{Fair: 2})
	// 1 gets hungry first (older claim) and then crashes while hungry;
	// 0 is greedy and would be throttled behind 1 forever without the
	// suspicion exemption.
	dining.Drive(k, 1, tbl.Diner(1), dining.DriverConfig{FirstHunger: 5, ThinkMin: 500, ThinkMax: 900, EatMin: 5, EatMax: 10})
	dining.Drive(k, 0, tbl.Diner(0), dining.DriverConfig{FirstHunger: 50, ThinkMin: 1, ThinkMax: 3, EatMin: 5, EatMax: 10})
	k.CrashAt(1, 2000)
	end := k.Run(40000)
	if starved := checker.WaitFreedom(log, "fair", end-5000, end); len(starved) > 0 {
		t.Fatalf("greedy diner stuck behind a dead neighbor: %v", starved)
	}
	// And 0 keeps eating after the crash.
	late := 0
	for _, iv := range log.Sessions("eating")[trace.SessionKey{Inst: "fair", P: 0}] {
		if iv.Start > 10000 {
			late++
		}
	}
	if late < 10 {
		t.Fatalf("only %d meals after the crash", late)
	}
}

// TestFairnessOnStar: the throttle composes with high-degree hubs — the
// center of a star with greedy leaves still eats (no deference deadlock).
func TestFairnessOnStar(t *testing.T) {
	log := &trace.Log{}
	g := graph.Star(5)
	k := sim.NewKernel(5, sim.WithSeed(6), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 400, PreMax: 50, PostMax: 6}))
	oracle := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
	tbl := forks.New(k, g, "fair", oracle, forks.Config{Fair: 2})
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 1, ThinkMax: 5, EatMin: 3, EatMax: 10,
		})
	}
	end := k.Run(40000)
	if starved := checker.WaitFreedom(log, "fair", end-5000, end); len(starved) > 0 {
		t.Fatalf("starvation on star: %v", starved)
	}
	center := len(log.Sessions("eating")[trace.SessionKey{Inst: "fair", P: 0}])
	if center < 10 {
		t.Fatalf("hub ate only %d times", center)
	}
}
