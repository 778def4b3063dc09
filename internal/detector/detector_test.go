package detector_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/sim"
	"repro/internal/trace"
)

func procs(n int) []sim.ProcID {
	out := make([]sim.ProcID, n)
	for i := range out {
		out[i] = sim.ProcID(i)
	}
	return out
}

// TestPerfectMatchesGroundTruth: the model-true P suspects exactly the
// crashed, at every instant.
func TestPerfectMatchesGroundTruth(t *testing.T) {
	k := sim.NewKernel(3)
	p := detector.Perfect{K: k}
	k.CrashAt(2, 100)
	probe := func(when sim.Time, want bool) {
		k.After(0, when, func() {
			if p.Suspected(0, 2) != want {
				t.Errorf("at t=%d: Suspected(0,2)=%v want %v", k.Now(), !want, want)
			}
			if p.Suspected(0, 1) {
				t.Errorf("at t=%d: suspected correct process", k.Now())
			}
		})
	}
	probe(50, false)
	probe(150, true)
	k.Run(1000)
}

// TestHeartbeatCompleteness: under GST, crashed processes become
// permanently suspected by all correct monitors.
func TestHeartbeatCompleteness(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		log := &trace.Log{}
		k := sim.NewKernel(3, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 500, PreMax: 100, PostMax: 6}))
		hb := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
		k.CrashAt(1, 1500)
		horizon := k.Run(20000)
		if !hb.Suspected(0, 1) || !hb.Suspected(2, 1) {
			t.Fatalf("seed %d: crashed process not suspected", seed)
		}
		if _, err := checker.StrongCompleteness(log, "hb", checker.AllPairs(procs(3)), false, horizon*3/4); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestHeartbeatEventualAccuracy: all-correct runs converge — after the
// adaptive timeouts grow past the post-GST delay bound, no false suspicion
// recurs.
func TestHeartbeatEventualAccuracy(t *testing.T) {
	for _, seed := range []int64{4, 5, 6} {
		log := &trace.Log{}
		k := sim.NewKernel(3, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 2000, PreMax: 300, PostMax: 6}))
		hb := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
		horizon := k.Run(30000)
		for _, p := range procs(3) {
			for _, q := range procs(3) {
				if p != q && hb.Suspected(p, q) {
					t.Fatalf("seed %d: %d still suspects %d", seed, p, q)
				}
			}
		}
		if _, err := checker.EventualStrongAccuracy(log, "hb", checker.AllPairs(procs(3)), false, horizon*3/4); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestHeartbeatMakesMistakesBeforeGST: with adversarial pre-GST delays the
// detector must actually suspect someone falsely at least once across
// seeds — otherwise the "eventually" in ◇P is not being exercised.
func TestHeartbeatMakesMistakesBeforeGST(t *testing.T) {
	mistakes := 0
	for seed := int64(1); seed <= 8; seed++ {
		log := &trace.Log{}
		k := sim.NewKernel(2, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 3000, PreMax: 400, PostMax: 5}))
		detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{Timeout: 50, Bump: 60})
		k.Run(15000)
		rep, err := checker.EventualStrongAccuracy(log, "hb", checker.AllPairs(procs(2)), false, 12000)
		if err != nil {
			t.Fatalf("seed %d: did not converge: %v", seed, err)
		}
		mistakes += rep.Mistakes
	}
	if mistakes == 0 {
		t.Fatal("no false suspicions across 8 adversarial runs; pre-GST adversary too weak")
	}
}

// TestHeartbeatAdaptiveTimeoutGrows: each false suspicion bumps the
// timeout.
func TestHeartbeatAdaptiveTimeoutGrows(t *testing.T) {
	log := &trace.Log{}
	k := sim.NewKernel(2, sim.WithSeed(2), sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: 3000, PreMax: 400, PostMax: 5}))
	hb := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{Timeout: 40, Bump: 50})
	k.Run(15000)
	rep, _ := checker.EventualStrongAccuracy(log, "hb", checker.AllPairs(procs(2)), false, 15000)
	if rep.Mistakes == 0 {
		t.Skip("this seed made no mistakes; growth not observable")
	}
	if hb.Timeout(0, 1) == 40 && hb.Timeout(1, 0) == 40 {
		t.Fatal("mistakes made but no timeout ever grew")
	}
}

// TestHeartbeatResetTrustOrder: Reset re-trusts the peers the dead
// incarnation suspected in ProcID order, so a restarted diner's trace reads
// the same every run. (The per-peer state was once four maps, and these
// records came out in map order.)
func TestHeartbeatResetTrustOrder(t *testing.T) {
	const n = 6
	log := &trace.Log{}
	k := sim.NewKernel(n, sim.WithTracer(log))
	hb := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
	for q := 1; q < n; q++ {
		k.CrashAt(sim.ProcID(q), 10)
	}
	k.Run(2000)
	for q := 1; q < n; q++ {
		if !hb.Suspected(0, sim.ProcID(q)) {
			t.Fatalf("0 does not suspect crashed %d", q)
		}
	}
	before := log.Len()
	hb.Reset(0)
	got := log.Records[before:]
	if len(got) != n-1 {
		t.Fatalf("Reset emitted %d records, want %d trusts: %v", len(got), n-1, got)
	}
	for i, r := range got {
		if r.Kind != trace.KindTrust || r.P != 0 || r.Peer != sim.ProcID(i+1) {
			t.Fatalf("record %d is %s %d->%d, want trust 0->%d", i, r.Kind, r.P, r.Peer, i+1)
		}
	}
	if hb.Suspected(0, 1) {
		t.Fatal("still suspecting after Reset")
	}
}

// TestHeartbeatSteadyStateAllocs: once the kernel's queue and the port
// counters are warm, a full heartbeat period — every module's broadcast, its
// deliveries and two suspicion checks — allocates nothing: no closure per
// timer, no map growth.
func TestHeartbeatSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel(4)
	detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
	horizon := k.Run(5000)
	allocs := testing.AllocsPerRun(200, func() {
		horizon += 20 // HeartbeatConfig's default Interval
		k.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("a steady-state heartbeat period allocated %v times, want 0", allocs)
	}
}

// TestTrustingAxioms: the model-true T satisfies trusting accuracy and
// strong completeness on a run with a crash.
func TestTrustingAxioms(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		log := &trace.Log{}
		k := sim.NewKernel(3, sim.WithSeed(seed), sim.WithTracer(log),
			sim.WithDelay(sim.UniformDelay{Min: 1, Max: 30}))
		tr := detector.NewTrusting(k, "T", 20)
		k.CrashAt(2, 2000)
		horizon := k.Run(20000)
		if !tr.Suspected(0, 2) {
			t.Fatalf("seed %d: crashed process not suspected by T", seed)
		}
		if tr.Suspected(0, 1) || tr.Suspected(1, 0) {
			t.Fatalf("seed %d: T suspects a correct process at the end", seed)
		}
		if _, err := checker.TrustingAccuracy(log, "T", checker.AllPairs(procs(3)), true, horizon/2); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if _, err := checker.StrongCompleteness(log, "T", checker.AllPairs(procs(3)), true, horizon*3/4); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestScripted: the test oracle reflects Set calls.
func TestScripted(t *testing.T) {
	var s detector.Scripted
	if s.Suspected(0, 1) {
		t.Fatal("zero value should suspect no one")
	}
	s.Set(0, 1, true)
	if !s.Suspected(0, 1) || s.Suspected(1, 0) {
		t.Fatal("Set not directional")
	}
	s.Set(0, 1, false)
	if s.Suspected(0, 1) {
		t.Fatal("unset failed")
	}
}

// TestViewBindsSelf: View routes queries through the bound monitor.
func TestViewBindsSelf(t *testing.T) {
	var s detector.Scripted
	s.Set(3, 9, true)
	v := detector.View{Oracle: &s, Self: 3}
	if !v.Suspected(9) {
		t.Fatal("view lost binding")
	}
	w := detector.View{Oracle: &s, Self: 4}
	if w.Suspected(9) {
		t.Fatal("view leaked across monitors")
	}
}
