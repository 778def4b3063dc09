package token_test

import (
	"fmt"
	"testing"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/token"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

func run(t testing.TB, g *graph.Graph, seed int64, crashes map[sim.ProcID]sim.Time, horizon sim.Time) (*trace.Log, sim.Time) {
	t.Helper()
	log := &trace.Log{}
	k := sim.NewKernel(g.N(), sim.WithSeed(seed), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 800, PreMax: 120, PostMax: 8}))
	oracle := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
	tbl := token.New(k, g, "tk", oracle, token.Config{})
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 100, EatMin: 5, EatMax: 30,
		})
	}
	for p, at := range crashes {
		k.CrashAt(p, at)
	}
	end := k.Run(horizon)
	return log, end
}

// TestTokenCrashFree: exclusion with no late violations and no starvation
// on several topologies.
func TestTokenCrashFree(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"pair":    graph.Pair(0, 1),
		"ring5":   graph.Ring(5),
		"clique4": graph.Clique(4),
	} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				log, end := run(t, g, seed, nil, 40000)
				if _, err := checker.EventualWeakExclusion(log, g, "tk", end*2/3, end); err != nil {
					t.Error(err)
				}
				if starved := checker.WaitFreedom(log, "tk", end-4000, end); len(starved) > 0 {
					t.Errorf("starvation: %v", starved)
				}
			})
		}
	}
}

// TestTokenSurvivesHolderCrash: the holder dies with the token mid-meal;
// regeneration keeps the survivors eating, and violations still stop.
func TestTokenSurvivesHolderCrash(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		g := graph.Ring(4)
		log, end := run(t, g, seed, map[sim.ProcID]sim.Time{1: 5000, 2: 11000}, 60000)
		if starved := checker.WaitFreedom(log, "tk", end-5000, end); len(starved) > 0 {
			t.Errorf("seed %d: starvation after holder crashes: %v", seed, starved)
		}
		if _, err := checker.EventualWeakExclusion(log, g, "tk", end*3/4, end); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// Regeneration actually happened (the crash was felt).
		regens := 0
		for _, r := range log.Records {
			if r.Kind == "mark" && r.Inst == "tk" {
				regens++
			}
		}
		if regens == 0 {
			t.Errorf("seed %d: no regeneration despite a crashed holder", seed)
		}
	}
}

// TestTokenDuplicatesAreTransient: force a spurious regeneration with a
// tiny initial timeout; duplicates must cause only early violations and
// the adaptive doubling must silence regeneration in the suffix.
func TestTokenDuplicatesAreTransient(t *testing.T) {
	log := &trace.Log{}
	g := graph.Ring(4)
	k := sim.NewKernel(4, sim.WithSeed(5), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 400, PreMax: 80, PostMax: 8}))
	oracle := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
	tbl := token.New(k, g, "tk", oracle, token.Config{Timeout: 30, Check: 10})
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 5, ThinkMax: 40, EatMin: 5, EatMax: 25,
		})
	}
	end := k.Run(60000)
	var lastRegen sim.Time
	regens := 0
	for _, r := range log.Records {
		if r.Kind == "mark" && r.Inst == "tk" {
			regens++
			lastRegen = r.T
		}
	}
	if regens == 0 {
		t.Fatal("tiny timeout never triggered a spurious regeneration; the scenario is toothless")
	}
	if lastRegen > end*3/4 {
		t.Fatalf("still regenerating at t=%d (of %d); timeouts did not adapt", lastRegen, end)
	}
	if _, err := checker.EventualWeakExclusion(log, g, "tk", end*3/4, end); err != nil {
		t.Fatal(err)
	}
	if starved := checker.WaitFreedom(log, "tk", end-5000, end); len(starved) > 0 {
		t.Fatalf("starvation: %v", starved)
	}
}

// TestTokenSteadyStateAllocs: once the kernel is warm, a token round with no
// regeneration — every hop's forward, delivery and adoption, and the
// regeneration checks that find nothing to do — allocates nothing: the
// token is boxed when its epoch is minted and forwarded as received.
func TestTokenSteadyStateAllocs(t *testing.T) {
	g := graph.Ring(4)
	k := sim.NewKernel(g.N(), sim.WithSeed(1))
	token.New(k, g, "tk", detector.Perfect{K: k}, token.Config{})
	horizon := k.Run(2000)
	allocs := testing.AllocsPerRun(100, func() {
		horizon += 50 // a round or more of a 4-ring with the default delays
		k.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("a steady-state token round allocated %v times, want 0", allocs)
	}
	if n := k.Counter("msg.sent:tk"); n < 100 {
		t.Fatalf("the token made %d hops: the round is not exercised", n)
	}
}
