package experiment

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/central"
	"repro/internal/dining/forks"
	"repro/internal/dining/token"
	"repro/internal/graph"
	"repro/internal/mutex"
	"repro/internal/sim"
	"repro/internal/trace"
)

// E6Flawed is the Section 3 counterexample, measured: over the trap box the
// [8] construction's suspicion count of a *correct* process grows with the
// horizon, while this paper's reduction converges to a constant.
func E6Flawed(seed int64, horizons []sim.Time) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Section 3 — [8]'s extraction vs. this paper's, over the trap box",
		Columns: []string{"horizon", "[8] suspicions of correct q", "reduction suspicions", "reduction final"},
	}
	const era = sim.Time(2500)
	var flawedCounts, ourCounts []int
	for _, h := range horizons {
		log := &trace.Log{}
		k := sim.NewKernel(6, sim.WithSeed(seed),
			sim.WithTracer(log), sim.WithDelay(sim.UniformDelay{Min: 1, Max: 12}))
		factory := central.Factory([]sim.ProcID{2, 3, 4, 5}, era)
		core.NewFlawedMonitor(k, 0, 1, factory, "flawed", 25)
		m := core.NewPairMonitor(k, 0, 1, factory, "xp")
		k.Run(h)
		fl := checker.MistakeCount(log, "flawed", 0, 1, true)
		ours := checker.MistakeCount(log, "xp", 0, 1, true)
		flawedCounts = append(flawedCounts, fl)
		final := "trusts"
		if m.Suspect() {
			final = "suspects"
			t.Failures = append(t.Failures, fmt.Sprintf("horizon %d: reduction ends suspecting a correct process", h))
		}
		ourCounts = append(ourCounts, ours)
		t.Rows = append(t.Rows, []string{itoa(int64(h)), itoa(int64(fl)), itoa(int64(ours)), final})
	}
	// The flawed construction must keep suspecting (counts grow with the
	// horizon) while the reduction's finitely many mistakes stabilize: the
	// count at the last two horizons must be identical.
	for i := 1; i < len(flawedCounts); i++ {
		if flawedCounts[i] <= flawedCounts[i-1] {
			t.Failures = append(t.Failures, "flawed construction's suspicion count stopped growing; counterexample not reproduced")
		}
	}
	if n := len(ourCounts); n >= 2 && ourCounts[n-1] != ourCounts[n-2] {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"reduction's mistake count still growing (%d -> %d); ◇P accuracy requires it to stabilize",
			ourCounts[n-2], ourCounts[n-1]))
	}

	// Second half of Section 3's analysis: the [8] construction is not
	// *unconditionally* wrong — over boxes where a never-exiting eater keeps
	// its resources (forks, token), it converges. Its flaw is that it fails
	// over SOME legal box, i.e. it is not black-box.
	h := horizons[len(horizons)-1]
	for _, boxName := range []string{"forks", "token"} {
		log := &trace.Log{}
		k := sim.NewKernel(2, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 800, PreMax: 100, PostMax: 8}))
		native := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
		var factory dining.Factory
		if boxName == "forks" {
			factory = forks.Factory(native, forks.Config{})
		} else {
			factory = token.Factory(native, token.Config{})
		}
		fm := core.NewFlawedMonitor(k, 0, 1, factory, "flawed", 25)
		k.Run(h)
		n := checker.MistakeCount(log, "flawed", 0, 1, true)
		final := "trusts"
		if fm.Suspect() {
			final = "suspects"
			t.Failures = append(t.Failures, fmt.Sprintf(
				"[8] over %s ended suspecting a correct process; Section 3 expects convergence there", boxName))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("(over %s)", boxName), itoa(int64(n)), "n/a", final,
		})
	}
	t.Notes = append(t.Notes,
		"both processes are correct; the [8] subject never exits its critical section",
		"over the forks/token boxes the eternal eater keeps its resources and [8] converges: the flaw is non-universality")
	return t
}

// E7Fairness compares overtaking in the converged suffix: the plain forks
// box (no fairness guarantee) vs. forks with the Fair: 2 throttle driven by
// an oracle *extracted* from that same box — the paper's two-step secondary
// result.
func E7Fairness(seeds []int64) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Eventual 2-fairness — plain WF-◇WX box vs. extracted-◇P fair layer",
		Columns: []string{"seed", "layer", "suffix overtakes beyond k=2", "starved", "verdict"},
	}
	g := graph.Pair(0, 1)
	drive := func(k *sim.Kernel, tbl dining.Table) {
		// Diner 0 is greedy; diner 1 is slow: maximal overtaking pressure.
		dining.Drive(k, 0, tbl.Diner(0), dining.DriverConfig{ThinkMin: 1, ThinkMax: 3, EatMin: 5, EatMax: 15})
		dining.Drive(k, 1, tbl.Diner(1), dining.DriverConfig{ThinkMin: 10, ThinkMax: 80, EatMin: 5, EatMax: 25})
	}
	t.collect(Sweep(seeds, func(seed int64) cellResult {
		var c cellResult

		// Plain box.
		r := NewRig(2, seed, 600)
		plain := forks.New(r.K, g, "plain", r.Native, forks.Config{})
		drive(r.K, plain)
		end := r.K.Run(50000)
		overPlain := len(checker.KFairness(r.Log, g, "plain", 2, end/2, end))
		c.addRow(itoa(seed), "plain forks", itoa(int64(overPlain)), "0", "no bound promised")

		// Pipeline: black box -> extractor -> eventually 2-fair forks.
		r2 := NewRig(2, seed, 600)
		ext := core.NewExtractor(r2.K, g.Nodes(), r2.Factory, "xp")
		fair := forks.New(r2.K, g, "fair", ext, forks.Config{Fair: 2})
		drive(r2.K, fair)
		end2 := r2.K.Run(50000)
		overFair := len(checker.KFairness(r2.Log, g, "fair", 2, end2/2, end2))
		starved := len(checker.WaitFreedom(r2.Log, "fair", end2-4000, end2))
		verdict := "ok"
		if overFair > 0 {
			verdict = "2-fairness violated"
			c.failf("seed=%d: %d suffix overtakes beyond 2 in the fair layer", seed, overFair)
		}
		if starved > 0 {
			verdict = "starvation"
			c.failf("seed=%d: fair layer starved %d diners", seed, starved)
		}
		c.addRow(itoa(seed), "fair (extracted ◇P)", itoa(int64(overFair)), itoa(int64(starved)), verdict)
		return c
	}))
	return t
}

// E8Trusting is the Section 9 experiment: the reduction over wait-free ℙWX
// boxes yields an oracle with trusting accuracy (trust withdrawn only after
// a real crash) and strong completeness.
func E8Trusting(seeds []int64) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Section 9 — reduction over ℙWX boxes extracts the trusting oracle T",
		Columns: []string{"box", "seed", "scenario", "trusting accuracy", "completeness"},
	}
	type flavor struct {
		name  string
		build func(k *sim.Kernel) dining.Factory
	}
	flavors := []flavor{
		{"mutex(T+S)", func(k *sim.Kernel) dining.Factory {
			// Model-true stand-in for [4]'s T+S composition (see the mutex
			// package comment): perpetually accurate + complete suspicion.
			return mutex.Factory(detector.Perfect{K: k})
		}},
		{"central", func(k *sim.Kernel) dining.Factory {
			return central.Factory([]sim.ProcID{2, 3}, 0)
		}},
	}
	for _, fl := range flavors {
		for _, seed := range seeds {
			for _, crash := range []bool{false, true} {
				log := &trace.Log{}
				k := sim.NewKernel(4, sim.WithSeed(seed), sim.WithTracer(log),
					sim.WithDelay(sim.UniformDelay{Min: 1, Max: 12}))
				m := core.NewPairMonitor(k, 0, 1, fl.build(k), "xT")
				scenario := "correct"
				if crash {
					scenario = "crash@8000"
					k.CrashAt(1, 8000)
				}
				end := k.Run(40000)
				acc, comp := "ok", "ok"
				if _, err := checker.TrustingAccuracy(log, "xT", [][2]sim.ProcID{{0, 1}}, true, end*3/4); err != nil {
					acc = err.Error()
					t.Failures = append(t.Failures, fmt.Sprintf("%s seed=%d %s: %v", fl.name, seed, scenario, err))
				}
				if crash {
					if _, err := checker.StrongCompleteness(log, "xT", [][2]sim.ProcID{{0, 1}}, true, end*3/4); err != nil {
						comp = err.Error()
						t.Failures = append(t.Failures, fmt.Sprintf("%s seed=%d %s: %v", fl.name, seed, scenario, err))
					}
					if !m.Suspect() {
						comp = "trusts crashed subject"
						t.Failures = append(t.Failures, fmt.Sprintf("%s seed=%d: trusts crashed subject", fl.name, seed))
					}
				} else {
					comp = "n/a"
					if m.Suspect() {
						acc = "still suspects correct subject"
						t.Failures = append(t.Failures, fmt.Sprintf("%s seed=%d: still suspects correct subject", fl.name, seed))
					}
				}
				t.Rows = append(t.Rows, []string{fl.name, itoa(seed), scenario, acc, comp})
			}
		}
	}
	t.Notes = append(t.Notes,
		"trusting accuracy = trust withdrawn only from crashed processes + eventual permanent trust of correct ones",
		"the ℙWX boxes internally need more than T (the paper's closing claim): see mutex.TestTrustAloneIsInsufficient")
	return t
}
