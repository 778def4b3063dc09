package mutex_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/mutex"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestDeferredGrantFlushesOnExit: a request that arrives while the holder
// eats is granted when the holder exits — the requester need not retry.
func TestDeferredGrantFlushesOnExit(t *testing.T) {
	log := &trace.Log{}
	g := graph.Pair(0, 1)
	k := sim.NewKernel(2, sim.WithSeed(3), sim.WithTracer(log),
		sim.WithDelay(sim.FixedDelay{D: 2}))
	oracle := detector.Perfect{K: k}
	tbl := mutex.New(k, g, "mx", oracle)
	d0, d1 := tbl.Diner(0), tbl.Diner(1)
	// 0 enters its critical section and holds it for a long while; 1 asks
	// in the middle and must get in right after 0 exits.
	k.After(0, 10, func() { d0.Hungry() })
	d0.OnChange(func(s dining.State) {
		if s == dining.Eating {
			k.After(0, 500, func() { d0.Exit() })
		}
	})
	k.After(1, 100, func() { d1.Hungry() })
	var oneAte sim.Time = sim.Never
	d1.OnChange(func(s dining.State) {
		if s == dining.Eating {
			oneAte = k.Now()
			d1.Exit()
		}
	})
	k.Run(5000)
	if oneAte == sim.Never {
		t.Fatal("deferred request never granted")
	}
	if oneAte < 500 {
		t.Fatalf("1 entered at t=%d while 0 still ate", oneAte)
	}
	if oneAte > 1000 {
		t.Fatalf("deferred grant took until t=%d; flush on exit broken", oneAte)
	}
}

// TestSimultaneousRequestsTieBreak: equal Lamport timestamps resolve by id;
// exactly one process wins the first entry and both eventually eat.
func TestSimultaneousRequestsTieBreak(t *testing.T) {
	log := &trace.Log{}
	g := graph.Pair(0, 1)
	k := sim.NewKernel(2, sim.WithSeed(4), sim.WithTracer(log),
		sim.WithDelay(sim.FixedDelay{D: 2}))
	oracle := detector.Perfect{K: k}
	tbl := mutex.New(k, g, "mx", oracle)
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			FirstHunger: 10, ThinkMin: 5, ThinkMax: 10, EatMin: 5, EatMax: 10,
		})
	}
	end := k.Run(20000)
	if _, err := checker.PerpetualWeakExclusion(log, g, "mx", end); err != nil {
		t.Fatal(err)
	}
	eat := log.Sessions("eating")
	e0 := eat[trace.SessionKey{Inst: "mx", P: 0}]
	e1 := eat[trace.SessionKey{Inst: "mx", P: 1}]
	if len(e0) == 0 || len(e1) == 0 {
		t.Fatalf("both must eat: %d, %d", len(e0), len(e1))
	}
	if !(e0[0].Start < e1[0].Start) {
		t.Fatalf("tie must break toward the lower id: first meals at %d and %d", e0[0].Start, e1[0].Start)
	}
}

// TestStaleGrantIgnored: a grant for a previous request (late over a
// non-FIFO channel) must not admit a newer request prematurely. Exercised
// by hammering sessions over a highly reordering network and checking
// exclusion never breaks.
func TestStaleGrantIgnored(t *testing.T) {
	log := &trace.Log{}
	g := graph.Clique(3)
	k := sim.NewKernel(3, sim.WithSeed(5), sim.WithTracer(log),
		sim.WithDelay(sim.UniformDelay{Min: 1, Max: 60}))
	oracle := detector.Perfect{K: k}
	tbl := mutex.New(k, g, "mx", oracle)
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 1, ThinkMax: 4, EatMin: 1, EatMax: 3,
		})
	}
	end := k.Run(40000)
	if rep, err := checker.PerpetualWeakExclusion(log, g, "mx", end); err != nil {
		t.Fatalf("stale grants admitted a second eater: %v", rep.Violations[0])
	}
}

// TestTrustAloneIsInsufficient reproduces the paper's Section 9 closing
// claim: the trusting oracle T by itself cannot give wait-free mutual
// exclusion. With an earned-trust T (suspect until first contact — a legal
// T), participants that get hungry before trust forms are mutually
// "suspected" and the permission exemption admits two live eaters. This is
// a demonstration test: the violation is the expected outcome.
func TestTrustAloneIsInsufficient(t *testing.T) {
	violated := false
	for seed := int64(1); seed <= 6 && !violated; seed++ {
		log := &trace.Log{}
		g := graph.Clique(3)
		k := sim.NewKernel(3, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.UniformDelay{Min: 1, Max: 60}))
		oracle := detector.NewTrusting(k, "T", 20)
		tbl := mutex.New(k, g, "mx", oracle)
		for _, p := range g.Nodes() {
			dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
				FirstHunger: 2, ThinkMin: 1, ThinkMax: 4, EatMin: 1, EatMax: 3,
			})
		}
		end := k.Run(40000)
		if rep := checker.Exclusion(log, g, "mx", end); len(rep.Violations) > 0 {
			violated = true
		}
	}
	if !violated {
		t.Fatal("earned-trust T never violated ℙWX across 6 eager runs; the Section 9 negative claim did not reproduce")
	}
}
