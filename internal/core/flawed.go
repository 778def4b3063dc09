package core

import (
	"fmt"

	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
)

// FlawedMonitor is the ◇P-extraction of Guerraoui, Kapalka and Kouznetsov
// ([8] in the paper) for one ordered pair (p, q), reproduced faithfully so
// that Section 3's counterexample can be demonstrated executably:
//
//   - q sends heartbeats to p at regular intervals, requests its critical
//     section once, and never exits it.
//   - p, upon a heartbeat, trusts q and becomes hungry; upon eating it
//     immediately exits, suspects q, and waits for the next heartbeat.
//
// The construction is correct over dining boxes that converge to exclusion
// even when a diner never exits (e.g. the forks box, where the eternal
// eater simply keeps its forks). It is *not* black-box: over the trap box —
// a legal WF-◇WX service that mirrors the convergence behavior of [12] —
// the never-exiting subject keeps the box's escape clause open, p eats and
// suspects q infinitely often, and the ◇P accuracy axiom fails. The paper's
// own reduction (PairMonitor) survives the same box because its subjects'
// eating sessions are always finite while the witness is live.
type FlawedMonitor struct {
	k    rt.Runtime
	p, q rt.ProcID
	inst string

	table dining.Table
	wd    dining.Diner // p's stub
	sd    dining.Diner // q's stub

	suspect   bool // p's output
	heartbeat rt.Time
}

// NewFlawedMonitor wires the [8] construction for (p, q) over one dining
// instance built by factory. heartbeat is q's send period.
func NewFlawedMonitor(k rt.Runtime, p, q rt.ProcID, factory dining.Factory, inst string, heartbeat rt.Time) *FlawedMonitor {
	if heartbeat <= 0 {
		heartbeat = 25
	}
	m := &FlawedMonitor{k: k, p: p, q: q, inst: inst, suspect: true, heartbeat: heartbeat}
	base := fmt.Sprintf("%s/%d-%d", inst, p, q)
	m.table = factory(k, graph.Pair(p, q), base+"/dx")
	m.wd = m.table.Diner(p)
	m.sd = m.table.Diner(q)

	k.After(p, 1, func() {
		k.Emit(rt.Record{P: p, Kind: "suspect", Peer: q, Inst: inst})
	})

	hb := rt.PortOf(base + "/hb")

	// ---- q's side: heartbeats forever, one hunger, never exit. ----
	var beat func()
	beat = func() {
		k.Send(q, p, hb, nil)
		k.After(q, m.heartbeat, beat)
	}
	k.After(q, 1, beat)
	k.AddAction(q, base+"/enter-cs",
		func() bool { return m.sd.State() == dining.Thinking },
		func() { m.sd.Hungry() })
	// Upon eating, q stays in its critical section forever: no exit action.

	// ---- p's side. ----
	wantHungry := false
	k.Handle(p, hb, func(rt.Message) {
		m.setSuspect(false) // trust on heartbeat
		wantHungry = true
	})
	k.AddAction(p, base+"/go-hungry",
		func() bool { return wantHungry && m.wd.State() == dining.Thinking },
		func() {
			wantHungry = false
			m.wd.Hungry()
		})
	k.AddAction(p, base+"/eat-and-suspect",
		func() bool { return m.wd.State() == dining.Eating },
		func() {
			m.setSuspect(true) // p reached its CS: it believes q is gone
			m.wd.Exit()
		})
	return m
}

// Suspect returns p's current output about q.
func (m *FlawedMonitor) Suspect() bool { return m.suspect }

// Table returns the underlying dining instance.
func (m *FlawedMonitor) Table() dining.Table { return m.table }

func (m *FlawedMonitor) setSuspect(v bool) {
	if v == m.suspect {
		return
	}
	m.suspect = v
	kind := "trust"
	if v {
		kind = "suspect"
	}
	m.k.Emit(rt.Record{P: m.p, Kind: kind, Peer: m.q, Inst: m.inst})
}
