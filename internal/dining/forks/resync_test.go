package forks_test

import (
	"fmt"
	"testing"

	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The crash-restart handshake (Table.Reset and the sync/syncack exchange) on
// the deterministic kernel. A simulated process never comes back from a
// crash, so a reset here is a timer at the diner: the one step the live
// runtime's reboot hook runs. Channels have a fixed delay, hence FIFO.
// Forks assume reliable channels, so a lossy run wires the table over the
// transport, which delivers out of order and which the reset clears first,
// as the reboot hook does. The oracle never suspects, so every meal is
// earned with real forks and fork ownership alone decides safety.

// journal replays OnFork into per-edge hold bits and keeps the first moment
// both ends of an edge held its fork.
type journal struct {
	k    *sim.Kernel
	hold map[[2]sim.ProcID]bool
	dup  string
}

func (j *journal) onFork(p, q sim.ProcID, hold bool) {
	j.hold[[2]sim.ProcID{p, q}] = hold
	if hold && j.hold[[2]sim.ProcID{q, p}] && j.dup == "" {
		j.dup = fmt.Sprintf("t=%d: %d and %d both hold the fork of their edge", j.k.Now(), p, q)
	}
}

// sendTap is a runtime with every Send shown to see first: the table is
// wired on it, so a test observes the table's traffic as it is sent.
type sendTap struct {
	rt.Runtime
	see func(sim.Message)
}

func (s sendTap) Send(from, to sim.ProcID, port rt.Port, payload any) {
	s.see(sim.Message{From: from, To: to, Port: port, Payload: payload})
	s.Runtime.Send(from, to, port, payload)
}

// TestResetResync resets diners mid-run — one alone, two neighbors in the
// same tick (both ends of an edge resyncing at once: the lower id mints),
// one cut off from everyone for a window right after its reset, so the
// transport must re-send its sync queries and their acks, and one whose
// inbound links lose 95 % of all messages for good — and checks from the
// OnFork journal that no edge ever has both ends holding, that at
// quiescence exactly one end holds each edge, that a reset diner eats
// again, and that a reset sends exactly one sync per edge, on plain and on
// fair tables.
func TestResetResync(t *testing.T) {
	const at = sim.Time(1000)
	cases := []struct {
		name   string
		resets []sim.ProcID
		plan   sim.LinkPlan
	}{
		{"one", []sim.ProcID{2}, sim.NoLinkFaults()},
		{"adjacent-same-tick", []sim.ProcID{1, 2}, sim.NoLinkFaults()},
		{"acks-dropped", []sim.ProcID{2}, sim.LinkPlan{Name: "cut-off", Windows: []sim.LossyWindow{
			{Start: at, End: at + 300, Drop: 1, Side: []sim.ProcID{2}},
		}}},
		{"inbound-lossy", []sim.ProcID{2}, sim.LinkPlan{Name: "lose-toward-2", Links: []sim.LinkFault{
			{From: -1, To: 2, Drop: 0.95},
		}}},
	}
	g := graph.Clique(4)
	for _, c := range cases {
		for _, fair := range []int{0, 2} {
			for _, seed := range []int64{1, 2, 3} {
				name := fmt.Sprintf("%s/seed%d", c.name, seed)
				if fair > 0 {
					name = fmt.Sprintf("fair%d/%s", fair, name)
				}
				t.Run(name, func(t *testing.T) {
					log := &trace.Log{}
					k := sim.NewKernel(g.N(), sim.WithSeed(seed), sim.WithTracer(log),
						sim.WithDelay(sim.FixedDelay{D: 3}))
					if err := c.plan.Apply(k); err != nil {
						t.Fatal(err)
					}
					j := &journal{k: k, hold: make(map[[2]sim.ProcID]bool)}
					var under rt.Runtime = k
					var tr *transport.Reliable
					if len(c.plan.Windows)+len(c.plan.Links) > 0 {
						tr = transport.Enable(k, "rt", transport.Config{})
						under = tr
					}
					syncs := 0
					tap := sendTap{under, func(m sim.Message) {
						if forks.IsSync(m.Payload) {
							syncs++
						}
					}}
					var mute detector.Scripted
					tbl := forks.New(tap, g, "fk", &mute, forks.Config{OnFork: j.onFork, Fair: fair})
					for _, p := range g.Nodes() {
						dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
							ThinkMin: 10, ThinkMax: 60, EatMin: 5, EatMax: 20, Meals: 40,
						})
					}
					for _, p := range c.resets {
						k.After(p, at, func() {
							if tr != nil {
								tr.Reset(p)
							}
							tbl.Reset(p)
						})
					}
					const horizon = 10_000_000
					if end := k.Run(horizon); end >= horizon {
						t.Fatalf("no quiescence by t=%d", horizon)
					}

					if j.dup != "" {
						t.Fatal(j.dup)
					}
					for _, e := range g.Edges() {
						p, q := e[0], e[1]
						hp, hq := j.hold[[2]sim.ProcID{p, q}], j.hold[[2]sim.ProcID{q, p}]
						if hp == hq {
							t.Errorf("edge %d-%d at quiescence: %d holds=%v, %d holds=%v, want exactly one", p, q, p, hp, q, hq)
						}
						if hp != tbl.HoldsFork(p, q) || hq != tbl.HoldsFork(q, p) {
							t.Errorf("edge %d-%d: the OnFork journal disagrees with HoldsFork", p, q)
						}
					}
					eats := log.Sessions("eating")
					for _, p := range c.resets {
						late := 0
						for _, iv := range eats[trace.SessionKey{Inst: "fk", P: p}] {
							if iv.Start > at {
								late++
							}
						}
						if late == 0 {
							t.Errorf("diner %d never ate after its reset", p)
						}
					}
					// Reset queries each neighbor once; recovering lost queries
					// and acks is the transport's job, not the table's.
					if want := len(c.resets) * (g.N() - 1); syncs != want {
						t.Errorf("%d sync queries, want exactly one per edge per reset: %d", syncs, want)
					}
				})
			}
		}
	}
}

// TestHungryDuringResync: a diner that turns hungry while its resync is
// pending must not lose its request to the sync. Here the sync is dropped
// once and re-sent by the transport, so anything sent after it can arrive
// first; the neighbor, eating, would defer that request and then drop it on
// the sync. The reset diner asks once the ack says where the fork is.
func TestHungryDuringResync(t *testing.T) {
	g := graph.Pair(0, 1)
	log := &trace.Log{}
	k := sim.NewKernel(2, sim.WithSeed(1), sim.WithTracer(log), sim.WithDelay(sim.FixedDelay{D: 3}))
	const at = sim.Time(10)
	// Links decide at arrival: the sync Reset sends at t=at lands at at+3.
	plan := sim.LinkPlan{Name: "lose-the-sync", Windows: []sim.LossyWindow{{Start: at + 3, End: at + 4, Drop: 1}}}
	if err := plan.Apply(k); err != nil {
		t.Fatal(err)
	}
	tr := transport.Enable(k, "rt", transport.Config{})
	var mute detector.Scripted
	tbl := forks.New(tr, g, "fk", &mute, forks.Config{})
	d0, d1 := tbl.Diner(0), tbl.Diner(1)
	d0.OnChange(func(s dining.State) { // 0 holds the fork and eats through the resync
		if s == dining.Eating {
			k.After(0, 100, d0.Exit)
		}
	})
	d1.OnChange(func(s dining.State) {
		if s == dining.Eating {
			k.After(1, 5, d1.Exit)
		}
	})
	k.After(0, 5, d0.Hungry)
	k.After(1, at, func() {
		tr.Reset(1)
		tbl.Reset(1)
	})
	k.After(1, at+2, d1.Hungry)
	const horizon = 100_000
	if end := k.Run(horizon); end >= horizon {
		t.Fatalf("no quiescence by t=%d", horizon)
	}
	if meals := log.Sessions("eating")[trace.SessionKey{Inst: "fk", P: 1}]; len(meals) != 1 {
		t.Fatalf("diner 1 ate %d times after its reset, want 1", len(meals))
	}
}

// TestResetForgetsHunger: a restarted neighbor's announced hunger dies with
// it, as its fork request does. Diner 1 turns hungry while diner 0 eats,
// then restarts and never turns hungry again; diner 0, throttled after one
// meal behind the older claim, must not wait on that hunger forever. The
// oracle never suspects, so nothing else would release the throttle. In the
// second case the announcement is held back until after the restart's sync
// has arrived: its epoch marks it stale.
func TestResetForgetsHunger(t *testing.T) {
	for _, c := range []struct {
		name string
		hold sim.Time // hold diner 1's hunger announcement back this long
	}{{"in-order", 0}, {"hunger-after-sync", 30}} {
		t.Run(c.name, func(t *testing.T) {
			g := graph.Pair(0, 1)
			log := &trace.Log{}
			k := sim.NewKernel(2, sim.WithSeed(1), sim.WithTracer(log), sim.WithDelay(sim.FixedDelay{D: 3}))
			var net rt.Runtime = k
			if c.hold > 0 {
				net = &slowFirst{Kernel: k, by: c.hold, is: func(from sim.ProcID, p any) bool {
					return from == 1 && forks.IsHunger(p)
				}}
			}
			var mute detector.Scripted
			tbl := forks.New(net, g, "fk", &mute, forks.Config{Fair: 1})
			dining.Drive(k, 0, tbl.Diner(0), dining.DriverConfig{FirstHunger: 1, EatMin: 50, EatMax: 50})
			k.After(1, 5, tbl.Diner(1).Hungry)
			k.After(1, 20, func() { tbl.Reset(1) })
			k.Run(20_000)
			if meals := len(log.Sessions("eating")[trace.SessionKey{Inst: "fk", P: 0}]); meals < 10 {
				t.Fatalf("diner 0 ate %d times, want at least 10: throttled behind a reset neighbor's hunger", meals)
			}
		})
	}
}
