package forks_test

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

func runFair(t testing.TB, g *graph.Graph, seed int64, oracle func(*sim.Kernel) detector.Oracle, crashes map[sim.ProcID]sim.Time, horizon sim.Time, greedy bool) (*trace.Log, sim.Time) {
	t.Helper()
	log := &trace.Log{}
	k := sim.NewKernel(g.N(), sim.WithSeed(seed), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
	tbl := forks.New(k, g, "fair", oracle(k), forks.Config{Fair: 2})
	for _, p := range g.Nodes() {
		cfg := dining.DriverConfig{ThinkMin: 10, ThinkMax: 100, EatMin: 5, EatMax: 30}
		if greedy && p == 0 {
			// A greedy diner that barely thinks: the fairness pressure case.
			cfg = dining.DriverConfig{ThinkMin: 1, ThinkMax: 3, EatMin: 5, EatMax: 15}
		}
		dining.Drive(k, p, tbl.Diner(p), cfg)
	}
	for p, at := range crashes {
		k.CrashAt(p, at)
	}
	end := k.Run(horizon)
	return log, end
}

func native(k *sim.Kernel) detector.Oracle {
	return detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
}

// TestStillWaitFreeAndEventuallyExclusive: the fairness throttle must not
// lose the base dining guarantees.
func TestStillWaitFreeAndEventuallyExclusive(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for name, g := range map[string]*graph.Graph{
			"ring5":   graph.Ring(5),
			"clique4": graph.Clique(4),
		} {
			log, end := runFair(t, g, seed, native, map[sim.ProcID]sim.Time{1: 6000}, 40000, false)
			if _, err := checker.EventualWeakExclusion(log, g, "fair", end*2/3, end); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
			if starved := checker.WaitFreedom(log, "fair", end-4000, end); len(starved) > 0 {
				t.Errorf("%s seed %d: %v", name, seed, starved)
			}
		}
	}
}

// TestEventual2Fairness: even against a greedy neighbor, no correct diner
// is overtaken more than twice in the converged suffix.
func TestEventual2Fairness(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		g := graph.Clique(3)
		log, end := runFair(t, g, seed, native, nil, 50000, true)
		if over := checker.KFairness(log, g, "fair", 2, end/2, end); len(over) > 0 {
			t.Errorf("seed %d: overtaking beyond 2 in the suffix: %v", seed, over)
		}
		if starved := checker.WaitFreedom(log, "fair", end-4000, end); len(starved) > 0 {
			t.Errorf("seed %d: %v", seed, starved)
		}
	}
}

// TestPipelineExtractedOracle is experiment E7, the paper's secondary
// result as a two-step construction: a black-box WF-◇WX solution (forks,
// powered by a native heartbeat ◇P) feeds the reduction; the *extracted*
// ◇P — not the native one — powers an eventually 2-fair forks table.
func TestPipelineExtractedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is long")
	}
	log := &trace.Log{}
	g := graph.Pair(0, 1)
	k := sim.NewKernel(2, sim.WithSeed(6), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
	nat := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
	blackbox := forks.Factory(nat, forks.Config{})
	ext := core.NewExtractor(k, g.Nodes(), blackbox, "xp")
	tbl := forks.New(k, g, "fair", ext, forks.Config{Fair: 2})
	for _, p := range g.Nodes() {
		cfg := dining.DriverConfig{ThinkMin: 10, ThinkMax: 80, EatMin: 5, EatMax: 25}
		if p == 0 {
			cfg = dining.DriverConfig{ThinkMin: 1, ThinkMax: 3, EatMin: 5, EatMax: 15}
		}
		dining.Drive(k, p, tbl.Diner(p), cfg)
	}
	end := k.Run(60000)
	if _, err := checker.EventualWeakExclusion(log, g, "fair", end*2/3, end); err != nil {
		t.Error(err)
	}
	if starved := checker.WaitFreedom(log, "fair", end-4000, end); len(starved) > 0 {
		t.Errorf("starvation: %v", starved)
	}
	if over := checker.KFairness(log, g, "fair", 2, end/2, end); len(over) > 0 {
		t.Errorf("overtaking: %v", over)
	}
}

// TestPipelineSurvivesCrash: the full pipeline with a crash — the extracted
// oracle must unblock the fair table.
func TestPipelineSurvivesCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is long")
	}
	log := &trace.Log{}
	g := graph.Pair(0, 1)
	k := sim.NewKernel(2, sim.WithSeed(7), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
	nat := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
	ext := core.NewExtractor(k, g.Nodes(), forks.Factory(nat, forks.Config{}), "xp")
	tbl := forks.New(k, g, "fair", ext, forks.Config{Fair: 2})
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 60, EatMin: 5, EatMax: 20,
		})
	}
	k.CrashAt(1, 8000)
	end := k.Run(60000)
	if starved := checker.WaitFreedom(log, "fair", end-5000, end); len(starved) > 0 {
		t.Errorf("survivor starved behind the crash: %v", starved)
	}
}
