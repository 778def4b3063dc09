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
)

// The crash-restart handshake (Table.Reset and the sync/syncack exchange) on
// the deterministic kernel. A simulated process never comes back from a
// crash, so a reset here is a timer at the diner: the one step the live
// runtime's reboot hook runs. Channels have a fixed delay, hence FIFO, which
// gives Reset's precondition by construction — nothing the old incarnation
// sent can overtake its sync queries. The oracle never suspects, so every
// meal is earned with real forks and fork ownership alone decides safety.

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

// sendTap is the kernel with every Send shown to see first: the table is
// wired on it, so a test observes the table's traffic as it is sent.
type sendTap struct {
	*sim.Kernel
	see func(sim.Message)
}

func (s sendTap) Send(from, to sim.ProcID, port rt.Port, payload any) {
	s.see(sim.Message{From: from, To: to, Port: port, Payload: payload})
	s.Kernel.Send(from, to, port, payload)
}

// TestResetResync resets diners mid-run — one alone, two neighbors in the
// same tick (both ends of an edge resyncing at once: the lower id mints), and
// one cut off from everyone for a window right after its reset, so its sync
// queries and their acks are lost and retried — and checks from the OnFork
// journal that no edge ever has both ends holding, that at quiescence
// exactly one end holds each edge, and that a reset diner eats again.
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
	}
	g := graph.Clique(4)
	for _, c := range cases {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				log := &trace.Log{}
				k := sim.NewKernel(g.N(), sim.WithSeed(seed), sim.WithTracer(log),
					sim.WithDelay(sim.FixedDelay{D: 3}))
				if err := c.plan.Apply(k); err != nil {
					t.Fatal(err)
				}
				j := &journal{k: k, hold: make(map[[2]sim.ProcID]bool)}
				syncs := 0
				tap := sendTap{k, func(m sim.Message) {
					if m.Port.String() == "fk/sync" {
						syncs++
					}
				}}
				var mute detector.Scripted
				tbl := forks.New(tap, g, "fk", &mute, forks.Config{OnFork: j.onFork})
				for _, p := range g.Nodes() {
					dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
						ThinkMin: 10, ThinkMax: 60, EatMin: 5, EatMax: 20, Meals: 40,
					})
				}
				for _, p := range c.resets {
					k.After(p, at, func() { tbl.Reset(p) })
				}
				const horizon = 1_000_000
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
				// Reset queries each neighbor once; lost acks must cause more.
				if first := len(c.resets) * (g.N() - 1); len(c.plan.Windows) > 0 && syncs <= first {
					t.Errorf("%d sync queries in a run whose acks were lost: want retries beyond Reset's %d", syncs, first)
				}
			})
		}
	}
}

// TestResyncRetriesInNeighborOrder: a reset diner whose syncacks keep getting
// lost retransmits its sync queries round after round, and every round goes
// out in g.Neighbors order — the order Reset itself sends in — so a run's
// message sequence is a function of its seed.
func TestResyncRetriesInNeighborOrder(t *testing.T) {
	g := graph.Clique(4)
	const p = sim.ProcID(1)
	k := sim.NewKernel(g.N(), sim.WithSeed(5))
	// Idle diners exchange nothing but the handshake, so every message to p
	// is a syncack.
	plan := sim.LinkPlan{Name: "lose-acks", Links: []sim.LinkFault{{From: -1, To: p, Drop: 0.95}}}
	if err := plan.Apply(k); err != nil {
		t.Fatal(err)
	}
	var rounds [][]sim.ProcID // sync destinations, one slice per sending tick
	last := sim.Time(-1)
	tap := sendTap{k, func(m sim.Message) {
		if m.Port.String() == "fk/sync" && m.From == p {
			if k.Now() != last {
				rounds, last = append(rounds, nil), k.Now()
			}
			rounds[len(rounds)-1] = append(rounds[len(rounds)-1], m.To)
		}
	}}
	var mute detector.Scripted
	tbl := forks.New(tap, g, "fk", &mute, forks.Config{})
	k.After(p, 10, func() { tbl.Reset(p) })
	k.Run(1_000_000)

	nbrs := g.Neighbors(p)
	multi := 0
	for i, got := range rounds {
		next := 0 // index into nbrs the next destination may not precede
		for _, q := range got {
			for next < len(nbrs) && nbrs[next] != q {
				next++
			}
			if next == len(nbrs) {
				t.Fatalf("round %d sent syncs to %v, want a subsequence of %v", i, got, nbrs)
			}
			next++
		}
		if len(got) > 1 {
			multi++
		}
	}
	if multi < 10 {
		t.Fatalf("only %d of %d rounds retried more than one edge; the check needs at least 10", multi, len(rounds))
	}
	for _, q := range nbrs {
		if tbl.HoldsFork(p, q) == tbl.HoldsFork(q, p) {
			t.Errorf("edge %d-%d unsettled after the handshake", p, q)
		}
	}
}
