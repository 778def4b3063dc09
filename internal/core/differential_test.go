package core_test

import (
	"fmt"
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/central"
	"repro/internal/dining/forks"
	"repro/internal/dining/token"
	"repro/internal/sim"
	"repro/internal/trace"
)

// boxes returns the four black-box families the reduction must be
// indifferent to: the distributed forks box, the circulating-token box, the
// adversarial trap box, and the idealized centralized box (ℙWX, hence also
// WF-◇WX).
func boxes(k *sim.Kernel, nProcs int) map[string]dining.Factory {
	coords := []sim.ProcID{sim.ProcID(nProcs), sim.ProcID(nProcs + 1)}
	native := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
	return map[string]dining.Factory{
		"forks":   forks.Factory(native, forks.Config{}),
		"token":   token.Factory(native, token.Config{}),
		"trap":    central.Factory(coords, 2500),
		"central": central.Factory(coords, 0),
	}
}

// TestDifferentialBoxes: the extracted oracle satisfies both ◇P axioms over
// every black box, with identical workload and crash schedule. This is the
// "black-box universality" that Section 3 shows [8] lacks.
func TestDifferentialBoxes(t *testing.T) {
	for _, boxName := range []string{"forks", "token", "trap", "central"} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", boxName, seed), func(t *testing.T) {
				log := &trace.Log{}
				k := sim.NewKernel(4, sim.WithSeed(seed), sim.WithTracer(log),
					sim.WithDelay(sim.GSTDelay{GST: 800, PreMax: 100, PostMax: 8}))
				factory := boxes(k, 2)[boxName]
				core.NewExtractor(k, []sim.ProcID{0, 1}, factory, "xp")
				k.CrashAt(1, 7000)
				end := k.Run(50000)
				pairs := [][2]sim.ProcID{{0, 1}, {1, 0}}
				if _, err := checker.StrongCompleteness(log, "xp", pairs, true, end*3/4); err != nil {
					t.Error(err)
				}
				if _, err := checker.EventualStrongAccuracy(log, "xp", pairs, true, end*3/4); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestReductionDeterminism: the complete reduction stack produces a
// bit-identical trace from the same seed — the reproducibility claim of the
// kernel holds through every layer.
func TestReductionDeterminism(t *testing.T) {
	run := func() string {
		log := &trace.Log{}
		k := sim.NewKernel(2, sim.WithSeed(99), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
		native := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
		core.NewPairMonitor(k, 0, 1, forks.Factory(native, forks.Config{}), "xp")
		k.CrashAt(1, 5000)
		k.Run(20000)
		return fmt.Sprint(log.Records)
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("same seed produced different reduction traces")
	}
}

// TestExtractorAllButOne: wait-freedom's promise is "regardless of how many
// processes crash"; with every process but one gone, the survivor's modules
// must converge to suspecting all of them.
func TestExtractorAllButOne(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		log := &trace.Log{}
		k := sim.NewKernel(3, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
		native := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
		ext := core.NewExtractor(k, procs(3), forks.Factory(native, forks.Config{}), "xp")
		sim.AllButOne(3, 0, 4000, 2000).Apply(k)
		end := k.Run(50000)
		for _, q := range []sim.ProcID{1, 2} {
			if !ext.Suspected(0, q) {
				t.Errorf("seed %d: survivor does not suspect crashed %d", seed, q)
			}
		}
		if _, err := checker.StrongCompleteness(log, "xp", checker.AllPairs(procs(3)), true, end*3/4); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestExtractorSimultaneousCrashes: both members of some monitored pairs
// die at the same instant; nothing deadlocks and survivors converge.
func TestExtractorSimultaneousCrashes(t *testing.T) {
	log := &trace.Log{}
	k := sim.NewKernel(4, sim.WithSeed(5), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
	native := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
	core.NewExtractor(k, procs(4), forks.Factory(native, forks.Config{}), "xp")
	k.CrashAt(2, 6000)
	k.CrashAt(3, 6000)
	end := k.Run(50000)
	if _, err := checker.StrongCompleteness(log, "xp", checker.AllPairs(procs(4)), true, end*3/4); err != nil {
		t.Error(err)
	}
	if _, err := checker.EventualStrongAccuracy(log, "xp", checker.AllPairs(procs(4)), true, end*3/4); err != nil {
		t.Error(err)
	}
}

// TestMonitorSelfPanics: monitoring yourself is a construction error.
func TestMonitorSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := sim.NewKernel(2)
	var mute detector.Scripted
	core.NewPairMonitor(k, 1, 1, forks.Factory(&mute, forks.Config{}), "xp")
}

// TestExtractorUnmonitoredPairs: Suspected over pairs outside the monitor
// set answers false rather than inventing state.
func TestExtractorUnmonitoredPairs(t *testing.T) {
	k := sim.NewKernel(3, sim.WithSeed(1))
	var mute detector.Scripted
	ext := core.NewExtractor(k, []sim.ProcID{0, 1}, forks.Factory(&mute, forks.Config{}), "xp")
	if ext.Suspected(0, 2) || ext.Suspected(2, 0) || ext.Suspected(1, 1) {
		t.Fatal("unmonitored pairs should not be suspected")
	}
	if ext.Monitor(0, 2) != nil {
		t.Fatal("phantom monitor")
	}
	if ext.Monitor(0, 1) == nil || ext.Monitor(1, 0) == nil {
		t.Fatal("monitored pairs missing")
	}
}
