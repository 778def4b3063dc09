package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestSetLinksDeterministicDrops sends the same per-direction message
// sequence through two runtimes with the same seed and plan: the surviving
// subsequences each receiver's handler sees must be identical — the fault
// schedule is a function of the seed alone.
func TestSetLinksDeterministicDrops(t *testing.T) {
	const sends = 300
	run := func() [2][]int {
		r := New(Config{N: 2, Seed: 7})
		if err := r.SetLinks(sim.LinkPlan{Name: "t", Drop: 0.4}); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got [2][]int
		for p := range got {
			r.Handle(rt.ProcID(p), "x", func(m rt.Message) {
				mu.Lock()
				got[p] = append(got[p], m.Payload.(int))
				mu.Unlock()
			})
		}
		r.Start()
		defer r.Stop()
		for i := 0; i < sends; i++ {
			r.Send(rt.ProcID(i%2), rt.ProcID(1-i%2), "x", i)
		}
		handled := func() int64 {
			mu.Lock()
			defer mu.Unlock()
			return int64(len(got[0]) + len(got[1]))
		}
		eventually(t, "every message delivered or dropped", func() bool {
			d := r.Counter("msg.delivered")
			return d+r.Counter("link.dropped") == sends && handled() == d
		})
		dropped := r.Counter("link.dropped")
		if dropped == 0 || dropped == sends {
			t.Fatalf("a 40%% drop plan dropped %d of %d", dropped, sends)
		}
		if a, b := r.Counter("msg.dropped.link"), r.Counter("msg.dropped"); a != dropped || b != dropped {
			t.Fatalf("link.dropped=%d msg.dropped.link=%d msg.dropped=%d, want all equal", dropped, a, b)
		}
		mu.Lock()
		defer mu.Unlock()
		return got
	}
	a, b := run(), run()
	for p := range a {
		if len(a[p]) != len(b[p]) {
			t.Fatalf("process %d: runs delivered %d vs %d messages", p, len(a[p]), len(b[p]))
		}
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatalf("process %d, delivery %d differs: %d vs %d", p, i, a[p][i], b[p][i])
			}
		}
	}
}

// TestSetLinksPartitionWindow checks that an active lossy window with a Side
// kills exactly the cross-partition links, like the simulator's, that a
// malformed plan is refused, and that a reliable plan uninstalls the window.
func TestSetLinksPartitionWindow(t *testing.T) {
	r := New(Config{N: 3})
	plan := sim.LinkPlan{Name: "t", Windows: []sim.LossyWindow{
		{Start: 0, End: 1 << 40, Drop: 1, Side: []sim.ProcID{0}},
	}}
	if err := r.SetLinks(plan); err != nil {
		t.Fatal(err)
	}
	bad := plan
	bad.Windows = []sim.LossyWindow{{Start: 0, End: 10, Drop: 1, Side: []sim.ProcID{5}}}
	if err := r.SetLinks(bad); err == nil {
		t.Fatal("a window sided on process 5 of 3 was accepted")
	}
	got := make(chan int, 8)
	for p := 0; p < 3; p++ {
		r.Handle(rt.ProcID(p), "x", func(m rt.Message) { got <- m.Payload.(int) })
	}
	r.Start()
	defer r.Stop()
	r.Send(0, 1, "x", 1) // crosses: dropped
	r.Send(2, 0, "x", 2) // crosses: dropped
	r.Send(1, 2, "x", 3) // same side: passes
	if g := <-got; g != 3 {
		t.Fatalf("partition window delivered %d, want 3", g)
	}
	if d, l := r.Counter("link.dropped"), r.Counter("msg.delivered"); d != 2 || l != 1 {
		t.Fatalf("link.dropped=%d msg.delivered=%d, want 2 and 1", d, l)
	}
	if err := r.SetLinks(sim.NoLinkFaults()); err != nil {
		t.Fatal(err)
	}
	r.Send(0, 1, "x", 4) // the window is gone: passes
	if g := <-got; g != 4 {
		t.Fatalf("after the window was removed, delivered %d, want 4", g)
	}
	if d := r.Counter("link.dropped"); d != 2 {
		t.Fatalf("link.dropped=%d after the window was removed, want 2", d)
	}
}

// TestSetLinksDupAndDelay checks duplication and bounded-reorder delay:
// every message arrives twice, the copies held back by timers.
func TestSetLinksDupAndDelay(t *testing.T) {
	r := New(Config{N: 2, Tick: time.Millisecond})
	if err := r.SetLinks(sim.LinkPlan{Name: "t", Dup: 1, ReorderMax: 3}); err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	r.Handle(1, "x", func(rt.Message) { n.Add(1) })
	r.Start()
	defer r.Stop()
	for i := 0; i < 10; i++ {
		r.Send(0, 1, "x", i)
	}
	eventually(t, "20 copies of 10 messages", func() bool { return n.Load() == 20 })
	if d := r.Counter("link.duped"); d != 10 {
		t.Fatalf("link.duped=%d, want 10", d)
	}
	if s, d := r.Counter("msg.sent"), r.Counter("msg.delivered"); s != 10 || d != 20 {
		t.Fatalf("msg.sent=%d msg.delivered=%d, want 10 and 20", s, d)
	}
}

// TestTransportOverLossyLinks layers the reliable transport on a live
// runtime whose link plan eats 25% of all messages: the same retransmission
// code that rebuilds reliable channels over the simulator's fair-lossy
// links does it in real time, and the dining table above it stays live and
// safe.
func TestTransportOverLossyLinks(t *testing.T) {
	log := &trace.Log{}
	g := graph.Ring(4)
	tick := 500 * time.Microsecond
	r := New(Config{N: 4, Tick: tick, Seed: 42, Tracer: log})
	if err := r.SetLinks(sim.LinkPlan{Name: "lossy", Drop: 0.25}); err != nil {
		t.Fatal(err)
	}
	tr := transport.Enable(r, "rt", transport.Config{})
	// Over lossy links a dropped heartbeat arrives one retransmission
	// timeout late; the oracle timeout must dominate that.
	oracle := detector.NewHeartbeat(tr, "hb", detector.HeartbeatConfig{Interval: 20, Check: 10, Timeout: 600, Bump: 300})
	tbl := forks.New(tr, g, "dine", oracle, forks.Config{})
	for _, p := range g.Nodes() {
		dining.Drive(r, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 60, EatMin: 2, EatMax: 10, FirstHunger: 30,
		})
	}
	r.Start()

	time.Sleep(2 * time.Second)
	end := r.Now()
	r.Stop()

	if r.Counter("link.dropped") == 0 {
		t.Fatal("the lossy plan dropped nothing; the test exercised no loss")
	}
	eat := log.Sessions("eating")
	for _, p := range g.Nodes() {
		if meals := len(eat[trace.SessionKey{Inst: "dine", P: p}]); meals < 1 {
			t.Errorf("diner %d starved over the lossy links (%d meals)", p, meals)
		}
	}
	if _, err := checker.EventualWeakExclusion(log, g, "dine", end/2, end); err != nil {
		t.Errorf("lossy-link run violates eventual weak exclusion: %v", err)
	}
	if tr.Counter("transport.retransmit") == 0 {
		t.Error("transport never retransmitted despite losses")
	}
}
