package core_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/central"
	"repro/internal/dining/forks"
	"repro/internal/sim"
	"repro/internal/trace"
)

const era = sim.Time(2500)

// trapRig: kernel with 2 protocol processes plus coordinator(s) at 2, 3;
// trap tables with the given mistake era.
func trapRig(seed int64) (*sim.Kernel, *trace.Log, dining.Factory) {
	log := &trace.Log{}
	k := sim.NewKernel(4, sim.WithSeed(seed), sim.WithTracer(log),
		sim.WithDelay(sim.UniformDelay{Min: 1, Max: 12}))
	factory := central.Factory([]sim.ProcID{2, 3}, era)
	return k, log, factory
}

// TestFlawedConstructionBreaksOverTrap is the executable Section 3
// counterexample: over the trap box — a legal WF-◇WX service — the [8]
// construction suspects a correct process infinitely often, violating
// eventual strong accuracy. The run is engineered exactly as in the paper:
// the subject q enters its critical section during the mistake era and
// never exits.
func TestFlawedConstructionBreaksOverTrap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		k, log, factory := trapRig(seed)
		core.NewFlawedMonitor(k, 0, 1, factory, "flawed", 25)
		end := k.Run(50000)
		// Both processes are correct, yet p keeps suspecting q: suspicion
		// transitions continue into the last quarter of the run.
		n := checker.MistakeCount(log, "flawed", 0, 1, true)
		if n < 10 {
			t.Fatalf("seed %d: only %d suspicions; the counterexample did not bite", seed, n)
		}
		if _, err := checker.EventualStrongAccuracy(log, "flawed", [][2]sim.ProcID{{0, 1}}, true, end*3/4); err == nil {
			t.Fatalf("seed %d: flawed construction unexpectedly satisfied ◇P accuracy over the trap", seed)
		}
	}
}

// TestOurReductionSurvivesTrap: the paper's own reduction over the same
// adversarial black box still implements ◇P — the subjects' eating
// sessions stay finite while the witness lives, so the escape clause
// closes.
func TestOurReductionSurvivesTrap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		k, log, factory := trapRig(seed)
		m := core.NewPairMonitor(k, 0, 1, factory, "xp")
		end := k.Run(50000)
		if m.Suspect() {
			t.Fatalf("seed %d: reduction still suspects correct subject", seed)
		}
		if _, err := checker.EventualStrongAccuracy(log, "xp", [][2]sim.ProcID{{0, 1}}, true, end*3/4); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestOurReductionSurvivesTrapWithCrash: completeness over the trap box.
func TestOurReductionSurvivesTrapWithCrash(t *testing.T) {
	k, log, factory := trapRig(4)
	m := core.NewPairMonitor(k, 0, 1, factory, "xp")
	k.CrashAt(1, 6000)
	end := k.Run(50000)
	if !m.Suspect() {
		t.Fatal("reduction trusts crashed subject")
	}
	if _, err := checker.StrongCompleteness(log, "xp", [][2]sim.ProcID{{0, 1}}, true, end*3/4); err != nil {
		t.Error(err)
	}
}

// TestFlawedConstructionWorksOverForks documents the other half of the
// Section 3 analysis: the [8] construction is *not universally* wrong — it
// converges over a box (like the fork algorithm) where a never-exiting
// eater simply keeps its forks and locks the witness out.
func TestFlawedConstructionWorksOverForks(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		log := &trace.Log{}
		k := sim.NewKernel(2, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 800, PreMax: 100, PostMax: 8}))
		native := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
		factory := forks.Factory(native, forks.Config{})
		fm := core.NewFlawedMonitor(k, 0, 1, factory, "flawed", 25)
		end := k.Run(50000)
		if fm.Suspect() {
			t.Fatalf("seed %d: flawed construction ended suspecting a correct subject over forks", seed)
		}
		if _, err := checker.EventualStrongAccuracy(log, "flawed", [][2]sim.ProcID{{0, 1}}, true, end*3/4); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
