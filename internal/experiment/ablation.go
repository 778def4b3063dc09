package experiment

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

// E13Ablations sweeps the design choices DESIGN.md calls out:
//
//	(a) the forks box's message cost: each fork request is sent once and
//	    answered once, so meals and fork messages are one row pair;
//	(b) the overtaking bound K of forks' fairness throttle (Config.Fair) —
//	    the service property the paper's secondary result fixes at 2;
//	(c) the native ◇P style feeding the black box (push heartbeats vs. pull
//	    pingbacks) — the reduction must be indifferent, at different costs.
func E13Ablations(seed int64) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "Ablations — forks message cost, fairness bound K, native oracle style",
		Columns: []string{"ablation", "setting", "metric", "value", "verdict"},
	}

	// ---- (a) message cost of the forks box ----
	{
		log := &trace.Log{}
		g := graph.Ring(5)
		k := sim.NewKernel(5, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
		oracle := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
		tbl := forks.New(k, g, "fk", oracle, forks.Config{})
		for _, p := range g.Nodes() {
			dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
				ThinkMin: 10, ThinkMax: 60, EatMin: 5, EatMax: 20,
			})
		}
		k.CrashAt(2, 6000)
		end := k.Run(30000)
		meals := 0
		for key, ivs := range log.Sessions("eating") {
			if key.Inst == "fk" {
				meals += len(ivs)
			}
		}
		starved := checker.WaitFreedom(log, "fk", end-3000, end)
		verdict := "ok"
		if len(starved) > 0 {
			verdict = "starvation"
			t.Failures = append(t.Failures, fmt.Sprintf("forks: %v", starved))
		}
		t.Rows = append(t.Rows,
			[]string{"forks", "ring5, crash 2@6000", "meals", itoa(int64(meals)), verdict},
			[]string{"forks", "ring5, crash 2@6000", "fork msgs", itoa(k.Counter("msg.sent:fk")), verdict},
		)
	}

	// ---- (b) fairness bound K ----
	for _, kBound := range []int{1, 2, 3} {
		log := &trace.Log{}
		g := graph.Pair(0, 1)
		kk := sim.NewKernel(2, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
		oracle := detector.NewHeartbeat(kk, "hb", detector.HeartbeatConfig{})
		tbl := forks.New(kk, g, "fair", oracle, forks.Config{Fair: kBound})
		dining.Drive(kk, 0, tbl.Diner(0), dining.DriverConfig{ThinkMin: 1, ThinkMax: 3, EatMin: 5, EatMax: 15})
		dining.Drive(kk, 1, tbl.Diner(1), dining.DriverConfig{ThinkMin: 10, ThinkMax: 80, EatMin: 5, EatMax: 25})
		end := kk.Run(40000)
		over := checker.KFairness(log, g, "fair", kBound, end/2, end)
		greedy := len(log.Sessions("eating")[trace.SessionKey{Inst: "fair", P: 0}])
		verdict := "ok"
		if len(over) > 0 {
			verdict = fmt.Sprintf("%d overtakes beyond K", len(over))
			t.Failures = append(t.Failures, fmt.Sprintf("K=%d: %v", kBound, over[0]))
		}
		if starved := checker.WaitFreedom(log, "fair", end-4000, end); len(starved) > 0 {
			verdict = "starvation"
			t.Failures = append(t.Failures, fmt.Sprintf("K=%d: %v", kBound, starved))
		}
		t.Rows = append(t.Rows,
			[]string{"fairness K", itoa(int64(kBound)), "greedy meals", itoa(int64(greedy)), verdict},
			[]string{"fairness K", itoa(int64(kBound)), "suffix overtakes > K", itoa(int64(len(over))), verdict},
		)
	}

	// ---- (c) native oracle style under the reduction ----
	for _, style := range []string{"heartbeat", "pingback"} {
		log := &trace.Log{}
		k := sim.NewKernel(2, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 800, PreMax: 100, PostMax: 8}))
		var oracle detector.Oracle
		if style == "heartbeat" {
			oracle = detector.NewHeartbeat(k, "nat", detector.HeartbeatConfig{})
		} else {
			oracle = detector.NewPingback(k, "nat", detector.PingbackConfig{})
		}
		core.NewPairMonitor(k, 0, 1, forks.Factory(oracle, forks.Config{}), "xp")
		end := k.Run(40000)
		rep, err := checker.EventualStrongAccuracy(log, "xp", [][2]sim.ProcID{{0, 1}}, true, end*3/4)
		verdict := "ok"
		if err != nil {
			verdict = err.Error()
			t.Failures = append(t.Failures, fmt.Sprintf("%s: %v", style, err))
		}
		conv := "immediate"
		if rep.Convergence != sim.Never {
			conv = itoa(int64(rep.Convergence))
		}
		t.Rows = append(t.Rows,
			[]string{"native oracle", style, "extracted mistakes", itoa(int64(rep.Mistakes)), verdict},
			[]string{"native oracle", style, "extracted convergence", conv, verdict},
			[]string{"native oracle", style, "oracle msgs", itoa(k.Counter("msg.sent:nat")), verdict},
		)
	}
	t.Notes = append(t.Notes,
		"(a) no retransmission: a request is remembered with its claim and decided when the fork is held, and suspicion does the unblocking",
		"(b) K trades greedy throughput for the fairness bound; K=2 is the paper's secondary-result setting",
		"(c) the reduction is indifferent to how the black box's own ◇P is built")
	return t
}
