package live

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The differential scenario: four processes, the full ◇P extraction (every
// ordered pair monitored via two-diner WF-◇WX boxes), one subject crashing
// mid-run. buildExtraction is runtime-agnostic — the very same call tree
// executes inside the discrete-event kernel and across live goroutines —
// and validateExtraction applies the same checker invariants to both trace
// streams. What the paper proves about the construction must hold however
// it is scheduled; this test checks that it does.

const (
	diffProcs   = 4
	diffCrash   = rt.ProcID(1)
	diffHorizon = rt.Time(8000)
	diffCrashAt = diffHorizon * 2 / 5
)

func buildExtraction(k rt.Runtime, hb detector.HeartbeatConfig) *core.Extractor {
	oracle := detector.NewHeartbeat(k, "hb", hb)
	procs := make([]rt.ProcID, diffProcs)
	for i := range procs {
		procs[i] = rt.ProcID(i)
	}
	return core.NewExtractor(k, procs, forks.Factory(oracle, forks.Config{}), "ex")
}

// validateExtraction asserts the run satisfies the extracted oracle's ◇P
// axioms and the dining boxes' eventual weak exclusion — purely from the
// record stream, so it cannot tell (and must not care) which runtime
// produced it.
func validateExtraction(t *testing.T, which string, l *trace.Log, horizon rt.Time) {
	t.Helper()
	procs := make([]rt.ProcID, diffProcs)
	for i := range procs {
		procs[i] = rt.ProcID(i)
	}
	bound := horizon * 3 / 4
	if _, err := checker.StrongCompleteness(l, "ex", checker.AllPairs(procs), true, bound); err != nil {
		t.Errorf("%s: strong completeness: %v", which, err)
	}
	if _, err := checker.EventualStrongAccuracy(l, "ex", checker.AllPairs(procs), true, bound); err != nil {
		t.Errorf("%s: eventual strong accuracy: %v", which, err)
	}
	// Every two-diner box under the extraction must itself satisfy ◇WX.
	boxes := 0
	for _, inst := range l.Instances(trace.KindState) {
		var p, q, i int
		if _, err := fmt.Sscanf(inst, "ex/%d-%d/%d", &p, &q, &i); err != nil {
			continue
		}
		boxes++
		g := graph.Pair(rt.ProcID(p), rt.ProcID(q))
		if _, err := checker.EventualWeakExclusion(l, g, inst, bound, horizon); err != nil {
			t.Errorf("%s: box %s: %v", which, inst, err)
		}
	}
	if want := diffProcs * (diffProcs - 1) * 2; boxes != want {
		t.Errorf("%s: saw %d extraction boxes, want %d", which, boxes, want)
	}
	if len(l.CrashTimes()) != 1 {
		t.Errorf("%s: expected exactly one crash record, got %v", which, l.CrashTimes())
	}
}

// TestDifferentialExtraction drives the identical extraction scenario on
// the simulation kernel and on the in-process live runtime and validates
// both trace streams with the same (runtime-agnostic) checkers.
//
// The live leg wires the extraction through rt.Paced. Its witness and
// subject threads dine forever, so some guard is always enabled at every
// process; registered on the runtime itself the cycles run at CPU speed, the
// timer goroutines that carry heartbeats are starved on a 2-CPU host, and the
// result is measured, not hypothetical: false suspicions and exclusion
// violations that persist past the convergence bound. In the simulator a
// step occupies time; one paced step per Tick is that rule in wall-clock
// form.
func TestDifferentialExtraction(t *testing.T) {
	// Simulated: deterministic, partially synchronous after GST.
	simLog := &trace.Log{}
	k := sim.NewKernel(diffProcs,
		sim.WithSeed(9),
		sim.WithTracer(simLog),
		sim.WithDelay(sim.GSTDelay{GST: 500, PreMax: 60, PostMax: 6}),
	)
	buildExtraction(k, detector.HeartbeatConfig{})
	k.CrashAt(diffCrash, diffCrashAt)
	simEnd := k.Run(diffHorizon)
	validateExtraction(t, "sim", simLog, simEnd)

	// Live: same construction, real goroutines and wall-clock timers.
	liveLog := &trace.Log{}
	tick := 500 * time.Microsecond
	r := New(Config{N: diffProcs, Tick: tick, Tracer: liveLog})
	buildExtraction(rt.Paced(r), liveHB)
	r.Start()
	time.Sleep(time.Duration(diffCrashAt) * tick)
	r.Crash(diffCrash)
	time.Sleep(time.Duration(diffHorizon-diffCrashAt) * tick)
	liveEnd := r.Now()
	r.Stop()
	validateExtraction(t, "live", liveLog, liveEnd)
}

// TestDifferentialBlackoutDining is the crash-recovery differential: the
// identical dining construction runs once on the simulator with no faults —
// the reference behavior — and once on the live runtime through a
// whole-table blackout (every process killed at the same instant, the full
// table restarted after a gap: the in-process shape of kill -9 on a
// dineserve hosting all diners). The same checker verdicts judge both trace
// streams; in the convergence era the recovered run must be
// indistinguishable from the clean one.
func TestDifferentialBlackoutDining(t *testing.T) {
	if testing.Short() {
		t.Skip("live blackout leg occupies seconds of wall clock")
	}
	const blkProcs = 4
	g := graph.Ring(blkProcs)

	buildTable := func(k rt.Runtime, hb detector.HeartbeatConfig) (*forks.Table, *detector.Heartbeat) {
		oracle := detector.NewHeartbeat(k, "hb", hb)
		tbl := forks.New(k, g, "dine", oracle, forks.Config{})
		for _, p := range g.Nodes() {
			dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
				ThinkMin: 10, ThinkMax: 60, EatMin: 10, EatMax: 30, FirstHunger: 30,
			})
		}
		return tbl, oracle
	}
	// The runtime-agnostic verdicts: a clean ◇WX report on the second half
	// and every diner eating in it. Both legs must pass both.
	validate := func(which string, l *trace.Log, end rt.Time) {
		t.Helper()
		from := end / 2
		if _, err := checker.EventualWeakExclusion(l, g, "dine", from, end); err != nil {
			t.Errorf("%s: eventual weak exclusion: %v", which, err)
		}
		eat := l.Sessions("eating")
		for _, p := range g.Nodes() {
			late := 0
			for _, iv := range eat[trace.SessionKey{Inst: "dine", P: p}] {
				if iv.Start > from {
					late++
				}
			}
			if late == 0 {
				t.Errorf("%s: diner %d never ate in the convergence era", which, p)
			}
		}
	}

	// Simulated reference: deterministic, partially synchronous, no faults.
	simLog := &trace.Log{}
	k := sim.NewKernel(blkProcs,
		sim.WithSeed(23),
		sim.WithTracer(simLog),
		sim.WithDelay(sim.GSTDelay{GST: 500, PreMax: 60, PostMax: 6}),
	)
	buildTable(k, detector.HeartbeatConfig{})
	simEnd := k.Run(diffHorizon)
	validate("sim", simLog, simEnd)

	// Live subject: the same table, killed whole and restarted whole.
	liveLog := &trace.Log{}
	tick := 500 * time.Microsecond
	r := New(Config{N: blkProcs, Tick: tick, Tracer: liveLog})
	tbl, oracle := buildTable(r, liveHB)
	r.Start()
	time.Sleep(1500 * time.Millisecond)
	for _, p := range g.Nodes() {
		r.Crash(p)
	}
	time.Sleep(400 * time.Millisecond)
	for _, p := range g.Nodes() {
		p := p
		if !r.Restart(p, func() {
			tbl.Reset(p)
			oracle.Reset(p)
		}) {
			t.Fatalf("Restart(%d) refused", p)
		}
	}
	time.Sleep(2500 * time.Millisecond)
	liveEnd := r.Now()
	r.Stop()

	// The blackout bracket must be fully recorded: one closed dead interval
	// and one recover record per process, and every diner must have eaten
	// before the lights went out (the blackout interrupted real work).
	dead := liveLog.DeadIntervals()
	eat := liveLog.Sessions("eating")
	for _, p := range g.Nodes() {
		if len(dead[p]) != 1 || !dead[p][0].Closed() {
			t.Fatalf("dead intervals of %d = %v, want one closed interval", p, dead[p])
		}
		early := 0
		for _, iv := range eat[trace.SessionKey{Inst: "dine", P: p}] {
			if iv.Start < dead[p][0].Start {
				early++
			}
		}
		if early == 0 {
			t.Errorf("diner %d never ate before the blackout", p)
		}
		if n := len(liveLog.Filter(rt.Record{Kind: trace.KindRecover, P: p, Peer: -1})); n != 1 {
			t.Errorf("recover records for %d = %d, want 1", p, n)
		}
	}
	// Fork conservation after the full-table resync: no edge double-held.
	for _, e := range g.Edges() {
		if tbl.HoldsFork(e[0], e[1]) && tbl.HoldsFork(e[1], e[0]) {
			t.Errorf("edge %d-%d has two fork holders after the blackout", e[0], e[1])
		}
	}
	validate("live", liveLog, liveEnd)
}
