package experiment_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/election"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestSoakFullStack runs every layer of the repository in one kernel for a
// long horizon: the dining black box, the full extractor over all ordered
// pairs, an eventually fair dining layer, consensus, and leader election —
// all driven by the extracted oracle — under staggered crashes. Every
// property that is supposed to hold must hold simultaneously.
func TestSoakFullStack(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is long")
	}
	const (
		n       = 4
		horizon = 120000
	)
	for _, seed := range []int64{1, 2} {
		r := experiment.NewRig(n, seed, 800)
		ps := experiment.Procs(n)

		// Layer 1+2: black box and extractor.
		ext := core.NewExtractor(r.K, ps, r.Factory, "xp")

		// Layer 3: fair dining on a clique, driven by the extracted oracle.
		g := graph.Clique(n)
		fair := forks.New(r.K, g, "fair", ext, forks.Config{Fair: 2})
		for _, p := range ps {
			dining.Drive(r.K, p, fair.Diner(p), dining.DriverConfig{
				ThinkMin: 10, ThinkMax: 120, EatMin: 5, EatMax: 40,
			})
		}

		// Layer 4: consensus + election over the extracted oracle.
		cs := consensus.New(r.K, ps, "cs", ext)
		el := election.New(r.K, ps, "lead", ext, 0)
		proposals := make(map[sim.ProcID]consensus.Value)
		for _, p := range ps {
			proposals[p] = consensus.Value(500 + int64(p))
			cs.Propose(p, proposals[p])
		}

		// One crash: the initial leader, mid-run (a majority must survive
		// for consensus).
		r.K.CrashAt(0, 20000)

		end := r.K.Run(horizon)

		// Oracle axioms.
		pairs := checker.AllPairs(ps)
		if _, err := checker.StrongCompleteness(r.Log, "xp", pairs, true, end*3/4); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if _, err := checker.EventualStrongAccuracy(r.Log, "xp", pairs, true, end*3/4); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// Fair dining: wait-free, eventually exclusive, eventually 2-fair.
		if _, err := checker.EventualWeakExclusion(r.Log, g, "fair", end*3/4, end); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if starved := checker.WaitFreedom(r.Log, "fair", end-5000, end); len(starved) > 0 {
			t.Errorf("seed %d: %v", seed, starved)
		}
		if over := checker.KFairness(r.Log, g, "fair", 2, end*3/4, end); len(over) > 0 {
			t.Errorf("seed %d: overtaking %v", seed, over)
		}
		// Consensus: agreement + validity + termination for survivors.
		var dec *consensus.Value
		for _, p := range ps {
			if r.K.Crashed(p) {
				continue
			}
			v, ok := cs.Decided(p)
			if !ok {
				t.Errorf("seed %d: %d never decided", seed, p)
				continue
			}
			if dec == nil {
				dec = &v
			} else if *dec != v {
				t.Errorf("seed %d: disagreement %d vs %d", seed, *dec, v)
			}
		}
		// Election: survivors agree on the minimum correct process.
		if leader, err := el.Agreement(r.K); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		} else if leader != 1 {
			t.Errorf("seed %d: leader %d, want 1", seed, leader)
		}
	}
}

// TestSoakLongQuiet: a crash-free, low-activity run for a very long horizon
// — nothing leaks, nothing flaps, the converged state is truly stable.
func TestSoakLongQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is long")
	}
	r := experiment.NewRig(2, 9, 500)
	m := core.NewPairMonitor(r.K, 0, 1, r.Factory, "xp")
	violations := 0
	m.WatchInvariants(101, 40000, func(at sim.Time, what string) {
		violations++
		t.Errorf("t=%d: %s", at, what)
	})
	end := r.K.Run(200000)
	if violations > 0 {
		t.Fatalf("%d invariant violations in a quiet run", violations)
	}
	if m.Suspect() {
		t.Fatal("suspecting a correct subject after 200k quiet ticks")
	}
	// No suspicion flapping in the converged 95% suffix.
	if _, err := checker.EventualStrongAccuracy(r.Log, "xp", [][2]sim.ProcID{{0, 1}}, true, end/20); err != nil {
		t.Error(err)
	}
}
