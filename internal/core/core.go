// Package core implements the paper's primary contribution: the asynchronous
// reduction that extracts the eventually perfect failure detector ◇P from
// any black-box solution to wait-free dining under eventual weak exclusion
// (Algorithms 1 and 2 of Sastry, Pike and Welch), establishing that ◇P is
// the weakest failure detector for WF-◇WX.
//
// For each ordered pair (p, q) where p monitors q, the construction runs two
// independent two-diner dining instances DX₀ and DX₁ over the conflict graph
// K₂(p, q). Process p runs two witness threads w₀, w₁ (Alg. 1), one per
// instance; process q runs two subject threads s₀, s₁ (Alg. 2). The witness
// threads take turns dining; the subject threads coordinate a hand-off so
// that the start and end of each subject's eating session overlaps the other
// subject's session — in the exclusive suffix some subject is always eating,
// which throttles the witnesses: a witness cannot eat twice in its instance
// without its subject eating in between. Every subject eating session sends
// exactly one ping and exits only after p's ack. A witness that reaches its
// critical section trusts q exactly when a ping arrived since its last meal.
//
// If q crashes, wait-freedom lets the witnesses eat forever while pings have
// stopped: q is eventually permanently suspected (strong completeness). If
// q is correct, after the dining boxes stop making scheduling mistakes every
// witness meal is preceded by a fresh ping: q is eventually permanently
// trusted (eventual strong accuracy).
//
// The same construction applied to a wait-free perpetual weak exclusion box
// extracts the trusting oracle T (Section 9); package core exposes that as
// well, and also ships the non-black-box construction of [8] whose failure
// the paper demonstrates (see flawed.go).
package core

import (
	"fmt"

	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
)

// PairMonitor is the reduction instance for one ordered pair: p (the
// witness process) monitors q (the subject process). Its output is the
// suspect bit of Alg. 1, initially true.
type PairMonitor struct {
	k    rt.Runtime
	p, q rt.ProcID
	inst string // oracle instance name used in trace records

	dx [2]dining.Table
	wd [2]dining.Diner // witness-side stubs, at p
	sd [2]dining.Diner // subject-side stubs, at q

	// Witness state (Alg. 1), local to p.
	switchVar int
	havePing  [2]bool
	suspect   bool

	// Subject state (Alg. 2), local to q.
	trigger int
	ping    [2]bool

	stats MessageStats // ping/ack accounting (verification device)
}

// NewPairMonitor wires the reduction for the ordered pair (p, q) on top of
// two fresh dining instances built by factory. inst names the extracted
// oracle in trace records; table instances are named inst/p-q/0 and
// inst/p-q/1.
func NewPairMonitor(k rt.Runtime, p, q rt.ProcID, factory dining.Factory, inst string) *PairMonitor {
	if p == q {
		panic("core: a process cannot monitor itself")
	}
	m := &PairMonitor{
		k: k, p: p, q: q, inst: inst,
		suspect: true,                // initially suspect q (Alg. 1)
		ping:    [2]bool{true, true}, // initially enabled (Alg. 2)
	}
	base := fmt.Sprintf("%s/%d-%d", inst, p, q)
	for i := 0; i < 2; i++ {
		g := graph.Pair(p, q)
		m.dx[i] = factory(k, g, fmt.Sprintf("%s/%d", base, i))
		m.wd[i] = m.dx[i].Diner(p)
		m.sd[i] = m.dx[i].Diner(q)
	}
	// Emit the initial suspicion so checkers see the paper's initial state.
	k.After(p, 1, func() {
		k.Emit(rt.Record{P: p, Kind: "suspect", Peer: q, Inst: inst})
	})

	for i := 0; i < 2; i++ {
		i := i
		// The session's two ports, made once rather than per message.
		ping := rt.PortOf(fmt.Sprintf("%s/ping%d", base, i))
		ack := rt.PortOf(fmt.Sprintf("%s/ack%d", base, i))
		// ---- Witness thread p.wᵢ (Alg. 1) ----
		// Action W_h: become hungry in DXᵢ when both witnesses think and it
		// is this witness's turn.
		k.AddAction(p, base+fmt.Sprintf("/W%d_h", i),
			func() bool {
				return m.wd[i].State() == dining.Thinking &&
					m.wd[1-i].State() == dining.Thinking &&
					m.switchVar == i
			},
			func() { m.wd[i].Hungry() })
		// Action W_x: upon eating, judge q by the ping bit, flip the turn,
		// and exit.
		k.AddAction(p, base+fmt.Sprintf("/W%d_x", i),
			func() bool { return m.wd[i].State() == dining.Eating },
			func() {
				m.setSuspect(!m.havePing[i])
				m.havePing[i] = false
				m.switchVar = 1 - i
				m.wd[i].Exit()
			})
		// Action W_p: acknowledge each ping.
		k.Handle(p, ping, func(msg rt.Message) {
			m.stats.PingsRecv[i]++
			m.havePing[i] = true
			m.stats.AcksSent[i]++
			k.Send(p, q, ack, nil)
		})

		// ---- Subject thread q.sᵢ (Alg. 2) ----
		// Action S_h: become hungry in DXᵢ when triggered.
		k.AddAction(q, base+fmt.Sprintf("/S%d_h", i),
			func() bool { return m.sd[i].State() == dining.Thinking && m.trigger == i },
			func() { m.sd[i].Hungry() })
		// Action S_p: while eating alone, send the single ping of this
		// session.
		k.AddAction(q, base+fmt.Sprintf("/S%d_p", i),
			func() bool {
				return m.sd[i].State() == dining.Eating &&
					m.sd[1-i].State() != dining.Eating &&
					m.ping[i]
			},
			func() {
				m.ping[i] = false
				m.stats.PingsSent[i]++
				k.Send(q, p, ping, nil)
			})
		// Action S_a: the ack schedules the other subject.
		k.Handle(q, ack, func(rt.Message) {
			m.stats.AcksRecv[i]++
			m.trigger = 1 - i
		})
		// Action S_x: exit only after the peer subject has started eating
		// (the hand-off that keeps some subject always eating).
		k.AddAction(q, base+fmt.Sprintf("/S%d_x", i),
			func() bool {
				return m.sd[i].State() == dining.Eating &&
					m.sd[1-i].State() == dining.Eating &&
					m.trigger == 1-i
			},
			func() {
				m.ping[i] = true
				m.sd[i].Exit()
			})
	}
	return m
}

// Suspect returns the current output of the monitor: does p suspect q?
func (m *PairMonitor) Suspect() bool { return m.suspect }

// Tables returns the two underlying dining instances (for tests that
// inspect the black box).
func (m *PairMonitor) Tables() [2]dining.Table { return m.dx }

func (m *PairMonitor) setSuspect(v bool) {
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

// Extractor assembles a complete failure-detector module set from pair
// monitors over every ordered pair of procs: the paper's reduction "for
// each ordered pair of processes". Over a WF-◇WX factory the result
// satisfies the ◇P axioms; over a wait-free ℙWX factory it satisfies the
// trusting oracle T's axioms (Section 9).
type Extractor struct {
	name     string
	monitors map[[2]rt.ProcID]*PairMonitor
}

// NewExtractor builds pair monitors for all ordered pairs of procs using
// the given black-box dining factory. name is the oracle instance name.
func NewExtractor(k rt.Runtime, procs []rt.ProcID, factory dining.Factory, name string) *Extractor {
	e := &Extractor{name: name, monitors: make(map[[2]rt.ProcID]*PairMonitor)}
	for _, p := range procs {
		for _, q := range procs {
			if p == q {
				continue
			}
			e.monitors[[2]rt.ProcID{p, q}] = NewPairMonitor(k, p, q, factory, name)
		}
	}
	return e
}

// Name implements detector.Oracle.
func (e *Extractor) Name() string { return e.name }

// Suspected implements detector.Oracle: the output of p's module about q.
// Pairs that are not monitored (e.g. p == q or q outside the monitored set)
// are reported unsuspected.
func (e *Extractor) Suspected(p, q rt.ProcID) bool {
	if m, ok := e.monitors[[2]rt.ProcID{p, q}]; ok {
		return m.Suspect()
	}
	return false
}

// Monitor returns the pair monitor for (p, q), or nil if the pair is not
// monitored.
func (e *Extractor) Monitor(p, q rt.ProcID) *PairMonitor {
	return e.monitors[[2]rt.ProcID{p, q}]
}
