package live

import (
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/trace"
)

// liveHB is a heartbeat configuration with timeouts generous enough that a
// CI scheduler stall does not register as a false suspicion.
var liveHB = detector.HeartbeatConfig{Interval: 20, Check: 10, Timeout: 400, Bump: 200}

// buildDining wires a forks table with a heartbeat oracle and synthetic
// drivers onto any runtime — the same code path the simulator tests use.
func buildDining(k rt.Runtime, g *graph.Graph, hb detector.HeartbeatConfig) dining.Table {
	oracle := detector.NewHeartbeat(k, "hb", hb)
	tbl := forks.New(k, g, "dine", oracle, forks.Config{})
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 60, EatMin: 2, EatMax: 10, FirstHunger: 30,
		})
	}
	return tbl
}

// TestForksDiningLive runs the WF-◇WX forks table on the live runtime over
// the in-process bus: a ring of five diners, one mid-run crash. The run's
// trace is validated by the same checkers the simulator uses.
func TestForksDiningLive(t *testing.T) {
	log := &trace.Log{}
	g := graph.Ring(5)
	r := New(Config{N: 5, Tick: 500 * time.Microsecond, Tracer: log})
	buildDining(r, g, liveHB)
	r.Start()

	time.Sleep(800 * time.Millisecond)
	r.Crash(2)
	time.Sleep(1700 * time.Millisecond)
	end := r.Now()
	r.Stop()

	eat := log.Sessions("eating")
	for _, p := range g.Nodes() {
		meals := len(eat[trace.SessionKey{Inst: "dine", P: p}])
		if p == 2 {
			continue
		}
		if meals < 2 {
			t.Errorf("correct diner %d ate only %d meals", p, meals)
		}
	}
	// The crashed diner's neighbors must keep eating after the crash
	// (wait-freedom via the suspicion override).
	crashT := log.CrashTimes()[2]
	for _, q := range g.Neighbors(2) {
		after := 0
		for _, iv := range eat[trace.SessionKey{Inst: "dine", P: q}] {
			if iv.Start > crashT {
				after++
			}
		}
		if after == 0 {
			t.Errorf("neighbor %d never ate after the crash of 2 at t=%d", q, crashT)
		}
	}
	if _, err := checker.EventualWeakExclusion(log, g, "dine", end/2, end); err != nil {
		t.Errorf("live run violates eventual weak exclusion: %v", err)
	}
	if r.Counter("msg.delivered") == 0 {
		t.Error("no messages delivered")
	}
}
