package experiment

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// E14Locality measures two context claims around the main result:
//
//	(a) failure locality — the paper cites [11]: without an oracle a crash
//	    starves diners (failure locality ≥ 1, and chains can extend it),
//	    while the ◇P override makes dining wait-free (nobody starves,
//	    locality "none"). Measured on a path with a middle crash.
//	(b) detector QoS under a network partition — the kind of correlated
//	    temporal misbehavior ◇P is allowed to mis-handle finitely often:
//	    both native implementations make mistakes during the partition and
//	    converge after it heals.
func E14Locality(seed int64) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "Failure locality (cf. [11]) and detector QoS under partition",
		Columns: []string{"section", "config", "metric", "value", "verdict"},
	}

	// ---- (a) failure locality on a path, middle crash ----
	for _, cfg := range []struct {
		name       string
		withOracle bool
	}{
		{"forks + ◇P", true},
		{"forks + no oracle", false},
	} {
		log := &trace.Log{}
		g := graph.Path(7)
		k := sim.NewKernel(7, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
		var oracle detector.Oracle
		if cfg.withOracle {
			oracle = detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
		} else {
			oracle = &detector.Scripted{} // suspects no one, ever
		}
		tbl := forks.New(k, g, "fk", oracle, forks.Config{})
		for _, p := range g.Nodes() {
			dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
				ThinkMin: 10, ThinkMax: 60, EatMin: 5, EatMax: 20,
			})
		}
		k.CrashAt(3, 4000) // the middle of the path
		const horizon = 40000
		end := k.Run(horizon)
		// An oracle-free table goes silent once it deadlocks: the run
		// quiesces, and a hunger session open at quiescence never ends.
		grace := end - 5000
		if end < horizon {
			grace = end
		}
		rep := checker.FailureLocality(log, g, "fk", grace, end)
		verdict := "ok"
		if cfg.withOracle {
			if rep.Locality != -1 {
				verdict = "starvation despite oracle"
				t.Failures = append(t.Failures, fmt.Sprintf("%s: starved %v", cfg.name, rep.Starved))
			}
			t.Rows = append(t.Rows, []string{"locality", cfg.name, "starved diners", itoa(int64(len(rep.Starved))), verdict})
		} else {
			if len(rep.Starved) == 0 {
				verdict = "no starvation?!"
				t.Failures = append(t.Failures, cfg.name+": oracle-free dining did not starve anyone; the ablation lost its teeth")
			}
			t.Rows = append(t.Rows,
				[]string{"locality", cfg.name, "starved diners", itoa(int64(len(rep.Starved))), verdict},
				[]string{"locality", cfg.name, "failure locality", itoa(int64(rep.Locality)), verdict},
			)
		}
	}

	// ---- (b) detector QoS under a healed partition ----
	for _, style := range []string{"heartbeat", "pingback"} {
		log := &trace.Log{}
		part := sim.PartitionDelay{
			Base: sim.UniformDelay{Min: 1, Max: 8},
			Side: map[sim.ProcID]bool{2: true, 3: true},
			Heal: 3000,
		}
		k := sim.NewKernel(4, sim.WithSeed(seed), sim.WithTracer(log), sim.WithDelay(part))
		var oracle detector.Oracle
		if style == "heartbeat" {
			oracle = detector.NewHeartbeat(k, "det", detector.HeartbeatConfig{Timeout: 50, Bump: 60})
		} else {
			oracle = detector.NewPingback(k, "det", detector.PingbackConfig{Timeout: 50, Bump: 60})
		}
		_ = oracle
		end := k.Run(30000)
		pairs := checker.AllPairs(Procs(4))
		q := checker.MeasureQoS(log, "det", pairs, false, end)
		verdict := "ok"
		if q.MistakeCount == 0 {
			verdict = "partition unnoticed?!"
			t.Failures = append(t.Failures, style+": no mistakes during a 3000-tick partition")
		}
		if _, err := checker.EventualStrongAccuracy(log, "det", pairs, false, end*3/4); err != nil {
			verdict = "did not converge"
			t.Failures = append(t.Failures, fmt.Sprintf("%s: %v", style, err))
		}
		t.Rows = append(t.Rows,
			[]string{"partition QoS", style, "mistakes", itoa(int64(q.MistakeCount)), verdict},
			[]string{"partition QoS", style, "mistake dur (total/max)", fmt.Sprintf("%d/%d", q.MistakeDurationTotal, q.MistakeDurationMax), verdict},
			[]string{"partition QoS", style, "query accuracy", fmt.Sprintf("%.4f", q.QueryAccurate), verdict},
		)
	}
	t.Notes = append(t.Notes,
		"(a) wait-freedom is failure locality 'none'; stripping the oracle reproduces the starvation that motivates ◇P",
		"(b) a 3000-tick partition forces correlated false suspicions on both sides; ◇P permits them because they end")
	return t
}
