package explore_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/central"
	"repro/internal/dining/forks"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

func forksFactory(oracle detector.Oracle) dining.Factory {
	return forks.Factory(oracle, forks.Config{})
}

// TestPrefixDelaySequence: the policy consumes its assignment in order and
// falls back to the tail.
func TestPrefixDelaySequence(t *testing.T) {
	p := &explore.PrefixDelay{
		Choices:    []sim.Time{1, 40},
		Assignment: []int{1, 0, 1},
		Tail:       5,
	}
	want := []sim.Time{40, 1, 40, 5, 5}
	for i, w := range want {
		if got := p.Delay(nil, 0, 1, 0); got != w {
			t.Fatalf("delay %d = %d, want %d", i, got, w)
		}
	}
}

// TestExhaustiveCountsAndOrder: the explorer enumerates exactly
// |choices|^prefix assignments.
func TestExhaustiveCountsAndOrder(t *testing.T) {
	var seen [][]int
	sc := func(pol sim.DelayPolicy) error {
		pd := pol.(*explore.PrefixDelay)
		seen = append(seen, pd.Assignment)
		return nil
	}
	res := explore.Exhaustive(sc, 3, []sim.Time{1, 2}, 1)
	if res.Runs != 8 || !res.Ok() {
		t.Fatalf("runs=%d ok=%v", res.Runs, res.Ok())
	}
	if fmt.Sprint(seen[0]) != "[0 0 0]" || fmt.Sprint(seen[7]) != "[1 1 1]" {
		t.Fatalf("order wrong: first %v last %v", seen[0], seen[7])
	}
}

// TestExplorerFindsPlantedRace: a deliberately racy mini-protocol — two
// processes that both "win" when their claim message arrives before the
// rival's — must be caught by exhaustive exploration of the first two
// delays.
func TestExplorerFindsPlantedRace(t *testing.T) {
	sc := func(pol sim.DelayPolicy) error {
		k := sim.NewKernel(3, sim.WithSeed(1), sim.WithDelay(pol), sim.WithStepJitter(1))
		winners := 0
		decided := false
		k.Handle(2, "claim", func(m sim.Message) {
			// Buggy arbiter: grants to whoever arrives while it has not
			// "decided", but forgets to set decided until a timer fires.
			if !decided {
				winners++
			}
		})
		k.After(2, 3, func() { decided = true })
		k.Send(0, 2, "claim", nil)
		k.Send(1, 2, "claim", nil)
		k.Run(100)
		if winners > 1 {
			return errors.New("two winners")
		}
		return nil
	}
	res := explore.Exhaustive(sc, 2, []sim.Time{1, 10}, 2)
	if res.Ok() {
		t.Fatal("explorer missed the planted race")
	}
	// And the failing assignment is the one delivering both claims early.
	found := false
	for _, f := range res.Failures {
		if fmt.Sprint(f.Assignment) == "[0 0]" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unexpected failing assignments: %v", res.Failures)
	}
}

// TestReductionInvariantsExhaustive: the paper's configuration invariants
// hold under EVERY assignment of the first 9 message delays of a pair-
// monitor run (2^9 = 512 complete runs) — enumeration, not sampling.
func TestReductionInvariantsExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration is long")
	}
	sc := func(pol sim.DelayPolicy) error {
		k := sim.NewKernel(2, sim.WithSeed(1), sim.WithDelay(pol))
		oracle := detector.Perfect{K: k}
		m := core.NewPairMonitor(k, 0, 1, forksFactory(oracle), "xp")
		var firstViolation error
		m.WatchInvariants(17, 1<<62, func(at sim.Time, what string) {
			if firstViolation == nil {
				firstViolation = fmt.Errorf("t=%d: %s", at, what)
			}
		})
		k.Run(4000)
		if firstViolation != nil {
			return firstViolation
		}
		if m.Suspect() {
			return errors.New("suspecting a correct subject")
		}
		return nil
	}
	res := explore.Exhaustive(sc, 9, []sim.Time{1, 35}, 3)
	if !res.Ok() {
		t.Fatalf("invariant violations under %d explored schedules: %v", res.Runs, res.Failures[0])
	}
	if res.Runs != 512 {
		t.Fatalf("runs=%d want 512", res.Runs)
	}
}

// TestCentralTableExclusionExhaustive: the centralized ℙWX table keeps
// perpetual exclusion under every early ordering of its HUNGRY/EAT/EXIT
// traffic — the regression class of the stale-EXIT race found during
// development.
func TestCentralTableExclusionExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration is long")
	}
	sc := func(pol sim.DelayPolicy) error {
		log := &trace.Log{}
		g := graph.Pair(0, 1)
		k := sim.NewKernel(3, sim.WithSeed(1), sim.WithTracer(log), sim.WithDelay(pol))
		tbl := central.New(k, g, "px", 2, 0)
		for _, p := range g.Nodes() {
			dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
				FirstHunger: 2, ThinkMin: 2, ThinkMax: 4, EatMin: 2, EatMax: 5,
			})
		}
		end := k.Run(3000)
		if _, err := checker.PerpetualWeakExclusion(log, g, "px", end); err != nil {
			return err
		}
		return nil
	}
	res := explore.Exhaustive(sc, 10, []sim.Time{1, 30}, 2)
	if !res.Ok() {
		t.Fatalf("exclusion violated under %d explored schedules: %v", res.Runs, res.Failures[0])
	}
}
