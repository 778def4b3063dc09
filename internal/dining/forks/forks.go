// Package forks implements wait-free dining under eventual weak exclusion
// (WF-◇WX): the sufficiency-direction black box the paper cites as [12]
// (Pike, Song and Sastry), realized as a fork-token algorithm with a ◇P
// suspicion override.
//
// Safety skeleton: each edge of the conflict graph carries a single fork
// token; a diner needs the fork of every incident edge to eat, so two
// neighbors that both wait for real forks can never eat together.
//
// Priority: fork requests are ordered by the requester's current hunger
// session, stamped with a Lamport clock — the total order on (timestamp,
// id) decides every conflict. A holder yields a requested fork unless it is
// eating or it is hungry with the older claim. Channels are reliable (on
// lossy links the transport makes them so), so each request is sent once:
// the holder keeps it with its claim and decides it whenever it holds the
// fork — on arrival, or when a fork the request overtook arrives; a
// deferred request is granted on exit. Because priority is derived
// from logical time rather than from persistent per-edge state, scheduling
// mistakes cannot corrupt it: the classical argument applies in every
// reachable configuration — the globally oldest hungry diner gets all its
// forks, eats, and re-timestamps behind everyone else, so no correct hungry
// diner starves. (A dirty/clean hygienic orientation, by contrast, can be
// driven into a precedence cycle by override mistakes, which is why this
// implementation orders by logical time.)
//
// Crash tolerance: a hungry diner also eats when every missing fork belongs
// to a neighbor its ◇P module currently suspects. False suspicions yield
// the finitely many scheduling mistakes that ◇WX permits; once the oracle
// converges, overrides involve only crashed neighbors, so live neighbors
// never eat together again (eventual weak exclusion) and crashed fork
// holders never block anyone (wait-freedom). Overrides never transfer fork
// ownership, so the one-fork-per-edge invariant survives every mistake.
//
// Eventual k-fairness: with Config.Fair = K > 0 the table is also eventually
// K-fair, the construction the paper cites as [13] (Song and Pike) fed any
// ◇P: for every run there is a time after which no diner eats more than K
// times while a correct neighbor stays hungry. The paper's secondary result
// takes K = 2 and feeds it the ◇P extracted from a black-box WF-◇WX
// solution (experiment E7, examples/fairdining). Each diner announces its
// hunger session (stamped with its hunger timestamp) and the end of each
// meal to its neighbors, and a hungry diner defers to a live neighbor q —
// refuses to start its (K+1)-th meal during q's announced hunger — when q's
// claim is older than its own. Deference follows the same (timestamp, id)
// order as fork priority, so it is acyclic and cannot deadlock: a hungry
// diner waits only on an eater or on an older claim, whether for a fork or
// under the throttle, so the oldest hungry diner waits on no one. (Were the
// orders different, a throttled fork holder and the requester it defers to
// could wait on each other.) Suspected neighbors are exempt, so a crash
// cannot wedge the throttle. Before the oracle and the announcements settle
// the throttle can err both ways, which is fine: ◇WX and eventual
// K-fairness both promise only a suffix.
//
// Wiring: a module handles one port, named after its table, and routes each
// message by its payload type (request, fork, sync, sync ack, and with Fair
// > 0 hunger and meal announcements).
package forks

import (
	"fmt"

	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
)

// Config tunes the algorithm.
type Config struct {
	// Seed overrides the initial fork placement: it reports whether p holds
	// the fork of edge {p, q} at module construction (nil: the lower id
	// holds). A durable server uses it to rebuild persisted ownership after
	// a restart.
	Seed func(p, q rt.ProcID) bool
	// OnFork observes every change of p's hold bit for edge {p, q},
	// including the initial placement. It runs on protocol goroutines and
	// must be fast and safe to call concurrently from different processes.
	OnFork func(p, q rt.ProcID, hold bool)
	// Fair is the overtaking bound K (see the package comment): 0 is the
	// plain box, with no fairness promise and no announcements; the paper's
	// secondary result uses 2.
	Fair int
}

// Table is a fork-algorithm dining instance.
type Table struct {
	name string
	g    *graph.Graph
	mods []*module // by ProcID; nil = not a diner
}

// New builds a WF-◇WX dining instance over g, consulting oracle (expected
// to satisfy the ◇P axioms) for the suspicion override.
func New(k rt.Runtime, g *graph.Graph, name string, oracle detector.Oracle, cfg Config) *Table {
	t := &Table{name: name, g: g, mods: make([]*module, g.Bound())}
	for _, p := range g.Nodes() {
		t.mods[p] = newModule(k, g, name, p, oracle, cfg)
	}
	return t
}

// Factory returns a dining.Factory that builds fork tables bound to the
// given oracle — the black-box shape the reduction consumes.
func Factory(oracle detector.Oracle, cfg Config) dining.Factory {
	return func(k rt.Runtime, g *graph.Graph, name string) dining.Table {
		return New(k, g, name, oracle, cfg)
	}
}

// Name implements dining.Table.
func (t *Table) Name() string { return t.name }

// Graph implements dining.Table.
func (t *Table) Graph() *graph.Graph { return t.g }

// Diner implements dining.Table.
func (t *Table) Diner(p rt.ProcID) dining.Diner { return t.diner(p) }

// diner returns p's module, panicking if p is not a diner of t.
func (t *Table) diner(p rt.ProcID) *module {
	if p < 0 || int(p) >= len(t.mods) || t.mods[p] == nil {
		panic(fmt.Sprintf("forks: %d is not a diner of %s", p, t.name))
	}
	return t.mods[p]
}

// HoldsFork reports whether p currently holds the fork of edge (p, q). At
// most one endpoint holds a given fork at any time (it may also be in
// transit); tests use this to verify fork conservation.
func (t *Table) HoldsFork(p, q rt.ProcID) bool {
	if p < 0 || int(p) >= len(t.mods) || t.mods[p] == nil {
		return false
	}
	e := t.mods[p].edge(q)
	return e != nil && e.hold
}

// edge is per-neighbor fork state at one module.
type edge struct {
	hold bool // we hold the fork of this edge
	// wantTS is the claim of the neighbor's pending request for the fork
	// (its newest hunger-session timestamp; 0 = none): a request we could
	// not grant yet, or one that arrived ahead of the fork it chases.
	wantTS int64
	// resync: we still await the neighbor's syncAck after a Reset. While it
	// is set the edge's fork is neither held nor mintable; the suspicion
	// override still applies, so a dead neighbor cannot wedge the restarted
	// diner.
	resync bool
	// epoch counts the edge's resyncs: a Reset at either end starts a new
	// one, and each end adopts the larger count it hears of.
	epoch int64

	// The neighbor's announced hunger, for the Fair throttle.
	nbrHungerTS int64 // timestamp of its current hunger session (0 = none)
	endedTS     int64 // newest of its hunger sessions known to have ended
	mealsDuring int   // our meals completed during that hunger
}

// forgetHunger drops the neighbor's announced hunger. endedTS stays: the
// neighbor's session timestamps only grow, so it still screens stale
// announcements.
func (e *edge) forgetHunger() { e.nbrHungerTS, e.mealsDuring = 0, 0 }

// current reports whether a message stamped with epoch is not stale,
// adopting a newer epoch.
func (e *edge) current(epoch int64) bool {
	if epoch < e.epoch {
		return false
	}
	e.epoch = epoch
	return true
}

type reqMsg struct {
	TS int64 // requester's hunger-session Lamport timestamp
}

// forkMsg is the fork itself. One from an older epoch was sent before a
// sync reached its sender, whose ack counted it as gone: it is dropped.
type forkMsg struct {
	Epoch int64
}

// syncMsg is sent by a restarted diner to every neighbor: "my fork state is
// gone — do you hold the fork of our edge?" It is sent once per edge and
// reset: the neighbor answers it on arrival, and a neighbor that was down
// answers with its own Reset's sync, which the tie rule in onSync settles.
type syncMsg struct {
	Epoch int64
}

// syncAckMsg answers a syncMsg with the responder's holding bit. The
// restarted diner mints a fresh fork for the edge iff Hold is false, which
// restores the one-fork-per-edge invariant: the old token either reached the
// neighbor before its sync did, was lost with the crashed process, or is
// still in flight from an older epoch and will be dropped.
type syncAckMsg struct {
	Hold  bool
	Epoch int64
}

// hungerMsg announces the sender's new hunger session (Fair > 0 only). One
// from an older epoch was overtaken by its sender's sync, which ended that
// hunger: it is dropped.
type hungerMsg struct {
	TS    int64
	Epoch int64
}

// ateMsg announces a meal that ended the sender's hunger session TS (Fair >
// 0 only).
type ateMsg struct {
	TS int64
}

type module struct {
	*dining.Core
	k     rt.Runtime
	self  rt.ProcID
	nbrs  []rt.ProcID
	edges []*edge // by ProcID; nil = not a neighbor
	view  detector.View
	cfg   Config

	port rt.Port // the module's one port, named after its table; made once

	clock    int64 // Lamport clock
	hungerTS int64 // timestamp of the current hunger session
}

func newModule(k rt.Runtime, g *graph.Graph, name string, p rt.ProcID, oracle detector.Oracle, cfg Config) *module {
	m := &module{
		Core:  dining.NewCore(k, p, name),
		k:     k,
		self:  p,
		nbrs:  g.Neighbors(p),
		edges: make([]*edge, g.Bound()),
		view:  detector.View{Oracle: oracle, Self: p},
		cfg:   cfg,

		port: rt.PortOf(name),
	}
	for _, q := range m.nbrs {
		// Initial fork placement: the lower id holds (any assignment works;
		// priority comes from timestamps, not from placement) unless a Seed
		// — e.g. recovered durable state — says otherwise.
		m.edges[q] = &edge{}
		hold := p < q
		if cfg.Seed != nil {
			hold = cfg.Seed(p, q)
		}
		if hold {
			m.setHold(q, true)
		}
	}
	k.Handle(p, m.port, m.onMsg)
	k.AddAction(p, "eat", m.canEat, m.eat)
	k.AddAction(p, "exit-done", func() bool { return m.State() == dining.Exiting }, m.finishExit)
	return m
}

// onMsg routes a message on the module's port by its payload type.
func (m *module) onMsg(msg rt.Message) {
	switch pl := msg.Payload.(type) {
	case reqMsg:
		m.onReq(msg.From, pl)
	case forkMsg:
		m.onFork(msg.From, pl)
	case syncMsg:
		m.onSync(msg.From, pl)
	case syncAckMsg:
		m.onSyncAck(msg.From, pl)
	case hungerMsg:
		m.onHunger(msg.From, pl)
	case ateMsg:
		m.onAte(msg.From, pl)
	default:
		panic(fmt.Sprintf("forks: unexpected payload %T at %d", msg.Payload, m.self))
	}
}

// edge returns the state of the edge to q, or nil if q is not a neighbor.
func (m *module) edge(q rt.ProcID) *edge {
	if q < 0 || int(q) >= len(m.edges) {
		return nil
	}
	return m.edges[q]
}

// Hungry implements dining.Diner: stamp the session, announce it if the
// table is fair, and chase forks.
func (m *module) Hungry() {
	m.Set(dining.Hungry)
	m.clock++
	m.hungerTS = m.clock
	if m.cfg.Fair > 0 {
		for _, q := range m.nbrs {
			m.k.Send(m.self, q, m.port, hungerMsg{TS: m.hungerTS, Epoch: m.edges[q].epoch})
		}
	}
	m.requestMissing()
}

// Exit implements dining.Diner.
func (m *module) Exit() { m.Set(dining.Exiting) }

// canEat: hungry, and every fork is either held or excused by suspicion of
// its holder's process, and no live neighbor throttles us. The oracle is
// consulted only for a missing fork or a throttling neighbor.
func (m *module) canEat() bool {
	if m.State() != dining.Hungry {
		return false
	}
	for _, q := range m.nbrs {
		if e := m.edges[q]; (!e.hold || m.throttledBy(q, e)) && !m.view.Suspected(q) {
			return false
		}
	}
	return true
}

// throttledBy reports whether q's announced hunger holds the claim older
// than ours and we have already eaten Fair times during it.
func (m *module) throttledBy(q rt.ProcID, e *edge) bool {
	return e.nbrHungerTS != 0 && e.mealsDuring >= m.cfg.Fair &&
		older(e.nbrHungerTS, q, m.hungerTS, m.self)
}

func (m *module) eat() { m.Set(dining.Eating) }

// finishExit grants every deferred request and returns to thinking. A fair
// table counts the meal against every neighbor hungry throughout it and
// announces that it ended our hunger session.
func (m *module) finishExit() {
	for _, q := range m.nbrs {
		e := m.edges[q]
		if m.cfg.Fair > 0 {
			if e.nbrHungerTS != 0 {
				e.mealsDuring++
			}
			m.k.Send(m.self, q, m.port, ateMsg{TS: m.hungerTS})
		}
		if e.wantTS != 0 && e.hold {
			m.yield(q)
		}
	}
	m.Set(dining.Thinking)
}

// onHunger records a neighbor's announced hunger session, unless that
// session is known to have ended or a restart of the neighbor overtook it.
func (m *module) onHunger(q rt.ProcID, h hungerMsg) {
	e := m.edge(q)
	if e == nil || h.Epoch < e.epoch {
		return
	}
	if h.TS > m.clock {
		m.clock = h.TS
	}
	if h.TS > e.endedTS && h.TS > e.nbrHungerTS {
		e.nbrHungerTS, e.mealsDuring = h.TS, 0
	}
}

// onAte records that a neighbor's meal ended its hunger session a.TS (it
// announces any new one).
func (m *module) onAte(q rt.ProcID, a ateMsg) {
	e := m.edge(q)
	if e == nil {
		return
	}
	if a.TS > m.clock {
		m.clock = a.TS
	}
	if a.TS > e.endedTS {
		e.endedTS = a.TS
	}
	if e.nbrHungerTS <= a.TS {
		e.forgetHunger()
	}
}

// older reports whether claim (ts, p) precedes claim (ts2, q) in the global
// priority order.
func older(ts int64, p rt.ProcID, ts2 int64, q rt.ProcID) bool {
	if ts != ts2 {
		return ts < ts2
	}
	return p < q
}

// onReq keeps a fork request's claim and decides it if we hold the fork;
// otherwise the fork's arrival decides it.
func (m *module) onReq(q rt.ProcID, req reqMsg) {
	e := m.edge(q)
	if e == nil {
		return
	}
	if req.TS > m.clock {
		m.clock = req.TS
	}
	if req.TS > e.wantTS {
		e.wantTS = req.TS
	}
	if e.hold {
		m.serve(q)
	}
}

// serve decides q's pending request, if any, for the fork we hold: yield
// unless we are eating, or hungry with the older claim. A request it does
// not grant stays on the edge and is granted on exit.
func (m *module) serve(q rt.ProcID) {
	want, st := m.edges[q].wantTS, m.State()
	if want == 0 || st == dining.Eating || st == dining.Exiting ||
		st == dining.Hungry && older(m.hungerTS, m.self, want, q) {
		return // nothing pending, or deferred until we exit
	}
	m.yield(q)
}

// setHold flips one edge's hold bit, notifying the OnFork observer on every
// real change. All hold mutations must go through here so a durable server
// sees a complete journal of fork ownership.
func (m *module) setHold(q rt.ProcID, hold bool) {
	e := m.edges[q]
	if e.hold == hold {
		return
	}
	e.hold = hold
	if m.cfg.OnFork != nil {
		m.cfg.OnFork(m.self, q, hold)
	}
}

// onFork records fork receipt (accepted in any state) and decides the
// neighbor's pending request, if any.
func (m *module) onFork(q rt.ProcID, f forkMsg) {
	e := m.edge(q)
	if e == nil || !e.current(f.Epoch) {
		return
	}
	m.setHold(q, true)
	// A real fork settles a pending resync of its edge: no need to mint.
	e.resync = false
	m.serve(q)
}

// yield transfers the fork to q.
func (m *module) yield(q rt.ProcID) {
	e := m.edges[q]
	m.setHold(q, false)
	e.wantTS = 0
	m.k.Send(m.self, q, m.port, forkMsg{Epoch: e.epoch})
	if m.State() == dining.Hungry {
		// We still compete: chase the fork we just gave up.
		m.k.Send(m.self, q, m.port, reqMsg{TS: m.hungerTS})
	}
}

// requestMissing asks for every fork we lack, with one boxed request for
// all of them. An edge still resyncing is skipped: a request could overtake
// our sync and be forgotten by it, so onSyncAck asks instead.
func (m *module) requestMissing() {
	var req any
	for _, q := range m.nbrs {
		if e := m.edges[q]; !e.hold && !e.resync {
			if req == nil {
				req = reqMsg{TS: m.hungerTS}
			}
			m.k.Send(m.self, q, m.port, req)
		}
	}
}

// Reset reinstalls p's module state after a crash-restart: the diner returns
// to Thinking and every incident edge is resynchronized with its other
// endpoint via the sync/syncack handshake, which decides afresh who holds
// the edge's fork. Call it from the reboot hook of live.Runtime.Restart. The
// sync opens a new epoch on each edge, so a fork still in flight from before
// the reset, in either direction, cannot coexist with a minted one.
func (t *Table) Reset(p rt.ProcID) {
	m := t.diner(p)
	m.Core.Reset()
	m.hungerTS = 0
	for _, q := range m.nbrs {
		e := m.edges[q]
		m.setHold(q, false)
		e.wantTS = 0
		e.forgetHunger()
		e.resync = true
		e.epoch++
		m.k.Send(m.self, q, m.port, syncMsg{Epoch: e.epoch})
	}
}

// onSync answers a restarted neighbor's state query, unless a later one
// has been answered. The neighbor's pending request and announced hunger
// died with it, and so did our request there: if we are hungry without the
// fork, we ask again after the ack. If both ends are resyncing (both
// restarted), the lower id mints at once and the ack tells the higher id it
// lost the tie; onSyncAck's resync guard discards the mirror-image ack.
func (m *module) onSync(q rt.ProcID, s syncMsg) {
	e := m.edge(q)
	if e == nil || !e.current(s.Epoch) {
		return
	}
	e.wantTS = 0
	e.forgetHunger()
	if e.resync {
		e.resync = false
		if m.self < q {
			m.setHold(q, true)
		}
	}
	m.k.Send(m.self, q, m.port, syncAckMsg{Hold: e.hold, Epoch: e.epoch})
	if !e.hold && m.State() == dining.Hungry {
		m.k.Send(m.self, q, m.port, reqMsg{TS: m.hungerTS})
	}
}

// onSyncAck settles one edge of a resync: mint the fork iff the neighbor
// does not hold it and decide its pending request, or, if it holds it and
// we are hungry, ask for it (Hungry skipped the edge). The resync bit and
// the epoch ignore duplicate and stale acks: no second fork is minted.
func (m *module) onSyncAck(q rt.ProcID, ack syncAckMsg) {
	e := m.edge(q)
	if e == nil || !e.resync || !e.current(ack.Epoch) {
		return
	}
	e.resync = false
	switch {
	case !ack.Hold:
		m.setHold(q, true)
		m.serve(q)
	case m.State() == dining.Hungry:
		m.k.Send(m.self, q, m.port, reqMsg{TS: m.hungerTS})
	}
}
