package forks_test

import (
	"fmt"
	"testing"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// run builds a kernel over g's nodes, attaches a forks table with a
// native heartbeat ◇P, drives every diner, applies crashes, and runs.
func run(t testing.TB, g *graph.Graph, seed int64, crashes map[sim.ProcID]sim.Time, horizon sim.Time) (*trace.Log, *forks.Table, sim.Time) {
	t.Helper()
	log := &trace.Log{}
	k := sim.NewKernel(g.N(), sim.WithSeed(seed), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 800, PreMax: 120, PostMax: 8}))
	oracle := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
	tbl := forks.New(k, g, "fk", oracle, forks.Config{})
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 120, EatMin: 5, EatMax: 40,
		})
	}
	for p, at := range crashes {
		k.CrashAt(p, at)
	}
	end := k.Run(horizon)
	return log, tbl, end
}

// TestCrashFreeExclusionAndProgress: with no crashes, the fork algorithm on a
// variety of topologies shows no late exclusion violations and no
// starvation.
func TestCrashFreeExclusionAndProgress(t *testing.T) {
	tops := map[string]*graph.Graph{
		"pair":    graph.Pair(0, 1),
		"ring5":   graph.Ring(5),
		"clique4": graph.Clique(4),
		"path6":   graph.Path(6),
		"star5":   graph.Star(5),
	}
	for name, g := range tops {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				log, _, end := run(t, g, seed, nil, 30000)
				if _, err := checker.EventualWeakExclusion(log, g, "fk", end/2, end); err != nil {
					t.Error(err)
				}
				if starved := checker.WaitFreedom(log, "fk", end-2000, end); len(starved) > 0 {
					t.Errorf("starvation: %v", starved)
				}
				// Everyone actually ate.
				eats := log.Sessions("eating")
				for _, p := range g.Nodes() {
					if len(eats[trace.SessionKey{Inst: "fk", P: p}]) == 0 {
						t.Errorf("diner %d never ate", p)
					}
				}
			})
		}
	}
}

// TestWaitFreedomUnderCrashes: E9's core claim — correct hungry diners keep
// eating no matter how many neighbors crash, including crashes of fork
// holders mid-protocol.
func TestWaitFreedomUnderCrashes(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		crashes map[sim.ProcID]sim.Time
	}{
		{"pair-partner", graph.Pair(0, 1), map[sim.ProcID]sim.Time{1: 4000}},
		{"ring-two", graph.Ring(5), map[sim.ProcID]sim.Time{1: 3000, 3: 7000}},
		{"clique-majority", graph.Clique(4), map[sim.ProcID]sim.Time{0: 2500, 1: 5000, 2: 9000}},
		{"star-center", graph.Star(5), map[sim.ProcID]sim.Time{0: 3000}},
	}
	for _, c := range cases {
		for _, seed := range []int64{3, 4} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				log, _, end := run(t, c.g, seed, c.crashes, 40000)
				if starved := checker.WaitFreedom(log, "fk", end-3000, end); len(starved) > 0 {
					t.Errorf("starvation: %v", starved)
				}
				// Survivors keep eating after the last crash.
				var lastCrash sim.Time
				for _, at := range c.crashes {
					if at > lastCrash {
						lastCrash = at
					}
				}
				eats := log.Sessions("eating")
				for _, p := range c.g.Nodes() {
					if _, crashed := c.crashes[p]; crashed {
						continue
					}
					late := 0
					for _, iv := range eats[trace.SessionKey{Inst: "fk", P: p}] {
						if iv.Start > lastCrash {
							late++
						}
					}
					if late == 0 {
						t.Errorf("correct diner %d stopped eating after crashes", p)
					}
				}
			})
		}
	}
}

// TestEventualWeakExclusionUnderCrashes: violations (suspicion mistakes)
// may happen but stop: none in the final third of a long run.
func TestEventualWeakExclusionUnderCrashes(t *testing.T) {
	g := graph.Ring(5)
	for _, seed := range []int64{5, 6, 7} {
		log, _, end := run(t, g, seed, map[sim.ProcID]sim.Time{2: 6000}, 45000)
		if _, err := checker.EventualWeakExclusion(log, g, "fk", end*2/3, end); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestForkConservation: at the end of any run, each edge's fork has at most
// one holder (it may be in transit).
func TestForkConservation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		g := graph.Clique(4)
		_, tbl, _ := run(t, g, seed, map[sim.ProcID]sim.Time{3: 5000}, 20000)
		for _, e := range g.Edges() {
			if tbl.HoldsFork(e[0], e[1]) && tbl.HoldsFork(e[1], e[0]) {
				t.Fatalf("seed %d: fork (%d,%d) duplicated", seed, e[0], e[1])
			}
		}
	}
}

// TestRandomGraphsSweep: broad randomized sweep across topologies, seeds
// and crash patterns; both dining guarantees must hold in every run.
func TestRandomGraphsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is long")
	}
	for seed := int64(10); seed < 16; seed++ {
		k := sim.NewKernel(1, sim.WithSeed(seed)) // rng host for topology
		n := 4 + k.Rand().Intn(3)
		g := graph.Random(n, 0.5, k.Rand())
		crashes := map[sim.ProcID]sim.Time{}
		if k.Rand().Intn(2) == 0 {
			crashes[sim.ProcID(k.Rand().Intn(n))] = sim.Time(2000 + k.Rand().Intn(6000))
		}
		log, _, end := run(t, g, seed, crashes, 40000)
		if _, err := checker.EventualWeakExclusion(log, g, "fk", end*2/3, end); err != nil {
			t.Errorf("seed %d (%v, crashes %v): %v", seed, g, crashes, err)
		}
		if starved := checker.WaitFreedom(log, "fk", end-3000, end); len(starved) > 0 {
			t.Errorf("seed %d: starvation %v", seed, starved)
		}
	}
}

// TestNoOracleNoWaitFreedom is the ablation that justifies the oracle: with
// a never-suspecting detector, a crashed fork holder starves its neighbor.
func TestNoOracleNoWaitFreedom(t *testing.T) {
	log := &trace.Log{}
	g := graph.Pair(0, 1)
	k := sim.NewKernel(2, sim.WithSeed(1), sim.WithTracer(log),
		sim.WithDelay(sim.UniformDelay{Min: 1, Max: 10}))
	var mute detector.Scripted // suspects no one, ever
	tbl := forks.New(k, g, "fk", &mute, forks.Config{})
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 60, EatMin: 5, EatMax: 20,
		})
	}
	k.CrashAt(1, 1000)
	const horizon = 20000
	end := k.Run(horizon)
	// Without an oracle the starved diner's table goes silent: the run
	// quiesces, and a hunger session open at quiescence never ends.
	grace := end - 5000
	if end < horizon {
		grace = end
	}
	starved := checker.WaitFreedom(log, "fk", grace, end)
	if len(starved) == 0 {
		t.Fatal("expected starvation without a failure detector; the fork algorithm would contradict [11]")
	}
}

// TestFactoryShape: the Factory closure builds independent tables.
func TestFactoryShape(t *testing.T) {
	k := sim.NewKernel(2, sim.WithSeed(1))
	var mute detector.Scripted
	f := forks.Factory(&mute, forks.Config{})
	t1 := f(k, graph.Pair(0, 1), "a")
	t2 := f(k, graph.Pair(0, 1), "b")
	if t1.Name() == t2.Name() {
		t.Fatal("factory reused the instance name")
	}
	if t1.Diner(0) == nil || t2.Diner(1) == nil {
		t.Fatal("diners missing")
	}
}
