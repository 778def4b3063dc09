package core_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/central"
	"repro/internal/mutex"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pwxRig returns a kernel plus a wait-free perpetual-weak-exclusion factory
// of the requested flavor: "mutex" (distributed, T-driven permission
// algorithm) or "central" (idealized coordinator).
func pwxRig(seed int64, flavor string) (*sim.Kernel, *trace.Log, dining.Factory) {
	log := &trace.Log{}
	k := sim.NewKernel(4, sim.WithSeed(seed), sim.WithTracer(log),
		sim.WithDelay(sim.UniformDelay{Min: 1, Max: 12}))
	var factory dining.Factory
	switch flavor {
	case "mutex":
		// Model-true stand-in for the T+S composition the FTME needs (see
		// the mutex package comment).
		factory = mutex.Factory(detector.Perfect{K: k})
	case "central":
		factory = central.Factory([]sim.ProcID{2, 3}, 0)
	default:
		panic(flavor)
	}
	return k, log, factory
}

// TestSection9ExtractsTrusting is experiment E8: the reduction applied to a
// wait-free ℙWX black box yields an oracle satisfying the trusting failure
// detector's axioms — strong completeness, eventual permanent trust of
// correct processes, and trust withdrawn only from crashed processes.
func TestSection9ExtractsTrusting(t *testing.T) {
	for _, flavor := range []string{"mutex", "central"} {
		for _, seed := range []int64{1, 2} {
			// Correct-subject run: trust must be gained and never withdrawn.
			k, log, factory := pwxRig(seed, flavor)
			m := core.NewPairMonitor(k, 0, 1, factory, "xT")
			end := k.Run(40000)
			if m.Suspect() {
				t.Errorf("%s seed %d: still suspects correct subject", flavor, seed)
			}
			if _, err := checker.TrustingAccuracy(log, "xT", [][2]sim.ProcID{{0, 1}}, true, end*3/4); err != nil {
				t.Errorf("%s seed %d: %v", flavor, seed, err)
			}

			// Crashing-subject run: completeness, and still no withdrawal
			// from a live process.
			k, log, factory = pwxRig(seed+10, flavor)
			m = core.NewPairMonitor(k, 0, 1, factory, "xT")
			k.CrashAt(1, 8000)
			end = k.Run(40000)
			if !m.Suspect() {
				t.Errorf("%s seed %d: trusts crashed subject", flavor, seed)
			}
			if _, err := checker.StrongCompleteness(log, "xT", [][2]sim.ProcID{{0, 1}}, true, end*3/4); err != nil {
				t.Errorf("%s seed %d: %v", flavor, seed, err)
			}
			if _, err := checker.TrustingAccuracy(log, "xT", [][2]sim.ProcID{{0, 1}}, true, end*3/4); err != nil {
				t.Errorf("%s seed %d (crash run): %v", flavor, seed, err)
			}
		}
	}
}

// TestTrustingExtractionNeverWithdrawsEarly zooms into axiom (b): across
// many seeds, the extracted oracle never performs a trust->suspect
// transition while the subject is alive. This is the property that
// distinguishes T from ◇P and that a ℙWX box (unlike a ◇WX box) buys.
func TestTrustingExtractionNeverWithdrawsEarly(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		k, log, factory := pwxRig(seed, "central")
		core.NewPairMonitor(k, 0, 1, factory, "xT")
		crashAt := sim.Time(3000 + 2000*seed)
		k.CrashAt(1, crashAt)
		k.Run(40000)
		sus := log.Suspicions()[trace.SuspicionKey{Inst: "xT", P: 0, Peer: 1}]
		trusted := false
		for _, c := range sus {
			if c.Suspect && trusted && c.T < crashAt {
				t.Fatalf("seed %d: trust withdrawn at t=%d before the crash at %d", seed, c.T, crashAt)
			}
			trusted = !c.Suspect
		}
	}
}
