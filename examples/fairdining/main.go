// Fair dining pipeline — the paper's secondary result as a running system:
//
//	black-box WF-◇WX dining  --reduction-->  ◇P  --[13]-->  eventually
//	                                                       2-fair dining
//
// A greedy diner shares an edge with a patient one. The plain black box
// never promises fairness (the greedy one may overtake arbitrarily); a forks
// table with Fair: 2 — the [13]-style overtaking throttle — driven by the
// oracle *extracted from that very box* bounds suffix overtaking by 2.
//
//	go run ./examples/fairdining
package main

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	g := graph.Pair(0, 1)
	drive := func(k *sim.Kernel, tbl dining.Table) {
		// Diner 0 barely thinks; diner 1 is slow to ask.
		dining.Drive(k, 0, tbl.Diner(0), dining.DriverConfig{ThinkMin: 1, ThinkMax: 3, EatMin: 5, EatMax: 15})
		dining.Drive(k, 1, tbl.Diner(1), dining.DriverConfig{ThinkMin: 10, ThinkMax: 80, EatMin: 5, EatMax: 25})
	}
	const horizon = 60000

	// --- Plain black box. ---
	{
		log := &trace.Log{}
		k := sim.NewKernel(2, sim.WithSeed(3), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
		native := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
		tbl := forks.New(k, g, "plain", native, forks.Config{})
		drive(k, tbl)
		end := k.Run(horizon)
		report(log, g, "plain", "plain WF-◇WX box", end)
	}

	// --- The pipeline. ---
	{
		log := &trace.Log{}
		k := sim.NewKernel(2, sim.WithSeed(3), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
		native := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
		blackbox := forks.Factory(native, forks.Config{})
		extracted := core.NewExtractor(k, g.Nodes(), blackbox, "xp")     // step 1: reduction
		tbl := forks.New(k, g, "fair", extracted, forks.Config{Fair: 2}) // step 2: [13]
		drive(k, tbl)
		end := k.Run(horizon)
		report(log, g, "fair", "pipeline (extracted ◇P -> fair layer)", end)
	}
}

func report(log *trace.Log, g *graph.Graph, inst, label string, end sim.Time) {
	eat := log.Sessions("eating")
	m0 := len(eat[trace.SessionKey{Inst: inst, P: 0}])
	m1 := len(eat[trace.SessionKey{Inst: inst, P: 1}])
	over := checker.KFairness(log, g, inst, 2, end/2, end)
	worst := 0
	for _, o := range over {
		if o.Count > worst {
			worst = o.Count
		}
	}
	fmt.Printf("%s:\n", label)
	fmt.Printf("  meals: greedy=%d patient=%d\n", m0, m1)
	if len(over) == 0 {
		fmt.Printf("  suffix overtaking: within the 2-fairness bound\n\n")
	} else {
		fmt.Printf("  suffix overtaking: bound exceeded %d times (worst streak %d meals)\n\n", len(over), worst)
	}
}
