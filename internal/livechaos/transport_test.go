package livechaos

import (
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestTransportOverLossyBus layers the reliable transport on a live bus
// that eats 25% of all messages: the same retransmission code that rebuilds
// reliable channels over the simulator's fair-lossy links does it over a
// real lossy medium, and the dining table above it stays live and safe.
func TestTransportOverLossyBus(t *testing.T) {
	log := &trace.Log{}
	g := graph.Ring(4)
	tick := 500 * time.Microsecond
	bus, err := NewChaosBus(live.NewChanBus(), BusConfig{
		N: 4, Seed: 42, Tick: tick, Plan: sim.LinkPlan{Name: "lossy", Drop: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := live.New(live.Config{N: 4, Tick: tick, Tracer: log, Bus: bus})
	transport.Enable(r, "rt", transport.Config{})
	// On a lossy bus a dropped heartbeat arrives one retransmission timeout
	// late; the oracle timeout must dominate that.
	oracle := detector.NewHeartbeat(r, "hb", detector.HeartbeatConfig{Interval: 20, Check: 10, Timeout: 600, Bump: 300})
	tbl := forks.New(r, g, "dine", oracle, forks.Config{})
	for _, p := range g.Nodes() {
		dining.Drive(r, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 60, EatMin: 2, EatMax: 10, FirstHunger: 30,
		})
	}
	r.Start()

	time.Sleep(2 * time.Second)
	end := r.Now()
	r.Stop()

	if r.Counter("bus.dropped") == 0 {
		t.Fatal("lossy bus dropped nothing; the test exercised no loss")
	}
	eat := log.Sessions("eating")
	for _, p := range g.Nodes() {
		if meals := len(eat[trace.SessionKey{Inst: "dine", P: p}]); meals < 1 {
			t.Errorf("diner %d starved over the lossy bus (%d meals)", p, meals)
		}
	}
	if _, err := checker.EventualWeakExclusion(log, g, "dine", end/2, end); err != nil {
		t.Errorf("lossy-bus run violates eventual weak exclusion: %v", err)
	}
	if r.Counter("transport.retransmit") == 0 {
		t.Error("transport never retransmitted despite losses")
	}
}
