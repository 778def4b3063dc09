// Command explore runs bounded-exhaustive schedule exploration over a
// chosen scenario: every assignment of the first K message delays (drawn
// from a two-value alphabet) is enumerated and the scenario's properties
// are checked under each complete run.
//
// Usage:
//
//	explore -scenario reduction -prefix 10
//	explore -scenario central -prefix 12 -fast 1 -slow 40
//
// Scenarios: reduction (pair-monitor invariants + verdict), central
// (perpetual exclusion of the centralized table), mutex (perpetual
// exclusion of the FTME box), consensus (agreement/validity/termination).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/checker"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/central"
	"repro/internal/dining/forks"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mutex"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		scenario = flag.String("scenario", "reduction", "reduction|central|mutex|consensus")
		prefix   = flag.Int("prefix", 10, "number of early messages whose delays are enumerated (2^prefix runs)")
		fast     = flag.Int64("fast", 1, "the fast delay of the alphabet")
		slow     = flag.Int64("slow", 35, "the slow delay of the alphabet")
		tail     = flag.Int64("tail", 3, "delay for messages after the prefix")
	)
	flag.Parse()
	if *prefix < 0 || *prefix > 20 {
		fmt.Fprintln(os.Stderr, "explore: prefix must be in [0, 20] (2^20 runs is already a lot)")
		os.Exit(2)
	}

	sc, err := buildScenario(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(2)
	}

	choices := []sim.Time{sim.Time(*fast), sim.Time(*slow)}
	fmt.Printf("exploring %s: %d runs (delays {%d,%d} over the first %d messages, tail %d)\n",
		*scenario, 1<<*prefix, *fast, *slow, *prefix, *tail)
	res := explore.Exhaustive(sc, *prefix, choices, sim.Time(*tail))
	fmt.Printf("runs: %d\n", res.Runs)
	if res.Ok() {
		fmt.Println("verdict: every explored schedule satisfied the properties")
		return
	}
	fmt.Printf("verdict: %d failing schedules (showing up to 10):\n", len(res.Failures))
	for _, f := range res.Failures {
		fmt.Println("  ", f)
	}
	os.Exit(1)
}

func buildScenario(name string) (explore.Scenario, error) {
	switch name {
	case "reduction":
		return func(pol sim.DelayPolicy) error {
			k := sim.NewKernel(2, sim.WithSeed(1), sim.WithDelay(pol))
			oracle := detector.Perfect{K: k}
			m := core.NewPairMonitor(k, 0, 1, forks.Factory(oracle, forks.Config{}), "xp")
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
		}, nil
	case "central":
		return func(pol sim.DelayPolicy) error {
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
			_, err := checker.PerpetualWeakExclusion(log, g, "px", end)
			return err
		}, nil
	case "mutex":
		return func(pol sim.DelayPolicy) error {
			log := &trace.Log{}
			g := graph.Clique(3)
			k := sim.NewKernel(3, sim.WithSeed(1), sim.WithTracer(log), sim.WithDelay(pol))
			tbl := mutex.New(k, g, "mx", detector.Perfect{K: k})
			for _, p := range g.Nodes() {
				dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
					FirstHunger: 2, ThinkMin: 1, ThinkMax: 4, EatMin: 1, EatMax: 4,
				})
			}
			end := k.Run(3000)
			_, err := checker.PerpetualWeakExclusion(log, g, "mx", end)
			return err
		}, nil
	case "consensus":
		return func(pol sim.DelayPolicy) error {
			k := sim.NewKernel(3, sim.WithSeed(1), sim.WithDelay(pol))
			ps := []sim.ProcID{0, 1, 2}
			in := consensus.New(k, ps, "cs", detector.Perfect{K: k})
			for _, p := range ps {
				in.Propose(p, consensus.Value(100+int64(p)))
			}
			k.Run(30000)
			var dec *consensus.Value
			for _, p := range ps {
				v, ok := in.Decided(p)
				if !ok {
					return fmt.Errorf("%d undecided", p)
				}
				if v < 100 || v > 102 {
					return fmt.Errorf("invalid decision %d", v)
				}
				if dec == nil {
					dec = &v
				} else if *dec != v {
					return fmt.Errorf("disagreement %d vs %d", *dec, v)
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unknown scenario %q", name)
}
