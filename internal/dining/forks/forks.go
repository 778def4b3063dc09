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
// eating or it is hungry with the older claim; deferred requests are
// granted on exit. Requests are retransmitted while hungry, which makes the
// protocol insensitive to channel reordering. Because priority is derived
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
	// Retry is the request retransmission period while hungry (default 25).
	Retry rt.Time
	// Seed overrides the initial fork placement: it reports whether p holds
	// the fork of edge {p, q} at module construction (nil: the lower id
	// holds). A durable server uses it to rebuild persisted ownership after
	// a restart.
	Seed func(p, q rt.ProcID) bool
	// OnFork observes every change of p's hold bit for edge {p, q},
	// including the initial placement. It runs on protocol goroutines and
	// must be fast and safe to call concurrently from different processes.
	OnFork func(p, q rt.ProcID, hold bool)
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
	if cfg.Retry <= 0 {
		cfg.Retry = 25
	}
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
	hold   bool // we hold the fork of this edge
	wanted bool // the neighbor requested it while we could not yield
	// resync: we still await the neighbor's syncAck after a Reset. While it
	// is set the edge's fork is neither held nor mintable; the suspicion
	// override still applies, so a dead neighbor cannot wedge the restarted
	// diner.
	resync bool
}

type reqMsg struct {
	TS int64 // requester's hunger-session Lamport timestamp
}

type forkMsg struct{}

// syncMsg is sent by a restarted diner to every neighbor: "my fork state is
// gone — do you hold the fork of our edge?" It is retransmitted until acked.
type syncMsg struct{}

// syncAckMsg answers a syncMsg with the responder's holding bit. The
// restarted diner mints a fresh fork for the edge iff Hold is false, which
// restores the one-fork-per-edge invariant (the old token either reached the
// neighbor before the restart or was dropped at the crashed process).
type syncAckMsg struct {
	Hold bool
}

type module struct {
	*dining.Core
	k     rt.Runtime
	self  rt.ProcID
	nbrs  []rt.ProcID
	edges []*edge // by ProcID; nil = not a neighbor
	view  detector.View
	cfg   Config

	// Made once rather than per send and per timer: the ports
	// (name+"/req" and so on) and the bound retry methods.
	reqPort, forkPort, syncPort, syncAckPort rt.Port
	retryFn, syncRetryFn                     func()

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

		reqPort:     rt.PortOf(name + "/req"),
		forkPort:    rt.PortOf(name + "/fork"),
		syncPort:    rt.PortOf(name + "/sync"),
		syncAckPort: rt.PortOf(name + "/syncack"),
	}
	m.retryFn, m.syncRetryFn = m.retry, m.syncRetry
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
	k.Handle(p, m.reqPort, m.onReq)
	k.Handle(p, m.forkPort, m.onFork)
	k.Handle(p, m.syncPort, m.onSync)
	k.Handle(p, m.syncAckPort, m.onSyncAck)
	k.AddAction(p, name+"/eat", m.canEat, m.eat)
	k.AddAction(p, name+"/exit-done", func() bool { return m.State() == dining.Exiting }, m.finishExit)
	return m
}

// edge returns the state of the edge to q, or nil if q is not a neighbor.
func (m *module) edge(q rt.ProcID) *edge {
	if q < 0 || int(q) >= len(m.edges) {
		return nil
	}
	return m.edges[q]
}

// Hungry implements dining.Diner: stamp the session and chase forks.
func (m *module) Hungry() {
	m.Set(dining.Hungry)
	m.clock++
	m.hungerTS = m.clock
	m.requestMissing()
	m.scheduleRetry()
}

// Exit implements dining.Diner.
func (m *module) Exit() { m.Set(dining.Exiting) }

// canEat: hungry, and every fork is either held or excused by suspicion of
// its holder's process.
func (m *module) canEat() bool {
	if m.State() != dining.Hungry {
		return false
	}
	for _, q := range m.nbrs {
		if !m.edges[q].hold && !m.view.Suspected(q) {
			return false
		}
	}
	return true
}

func (m *module) eat() { m.Set(dining.Eating) }

// finishExit grants every deferred request and returns to thinking.
func (m *module) finishExit() {
	for _, q := range m.nbrs {
		if e := m.edges[q]; e.wanted && e.hold {
			m.yield(q)
		}
	}
	m.Set(dining.Thinking)
}

// older reports whether claim (ts, p) precedes claim (ts2, q) in the global
// priority order.
func older(ts int64, p rt.ProcID, ts2 int64, q rt.ProcID) bool {
	if ts != ts2 {
		return ts < ts2
	}
	return p < q
}

// onReq decides a fork request: yield unless we are eating, or hungry with
// the older claim. A request for a fork we do not hold is remembered too:
// non-FIFO channels can deliver a request ahead of the fork it chases.
func (m *module) onReq(msg rt.Message) {
	q := msg.From
	e := m.edge(q)
	if e == nil {
		return
	}
	req := msg.Payload.(reqMsg)
	if req.TS > m.clock {
		m.clock = req.TS
	}
	if !e.hold {
		e.wanted = true
		return
	}
	switch m.State() {
	case dining.Eating, dining.Exiting:
		e.wanted = true
	case dining.Hungry:
		if older(m.hungerTS, m.self, req.TS, q) {
			e.wanted = true // our claim is older: they wait
		} else {
			m.yield(q)
		}
	default: // thinking: not competing, always yield
		m.yield(q)
	}
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

// onFork records fork receipt (accepted in any state) and serves a deferred
// request if we are no longer competing.
func (m *module) onFork(msg rt.Message) {
	e := m.edge(msg.From)
	if e == nil {
		return
	}
	m.setHold(msg.From, true)
	// A real fork settles a pending resync of its edge: no need to mint.
	e.resync = false
	if e.wanted && m.State() == dining.Thinking {
		m.yield(msg.From)
	}
}

// yield transfers the fork to q.
func (m *module) yield(q rt.ProcID) {
	e := m.edges[q]
	m.setHold(q, false)
	e.wanted = false
	m.k.Send(m.self, q, m.forkPort, forkMsg{})
	if m.State() == dining.Hungry {
		// We still compete: chase the fork we just gave up.
		m.k.Send(m.self, q, m.reqPort, reqMsg{TS: m.hungerTS})
	}
}

// requestMissing asks for every fork we lack, with one boxed request for
// all of them.
func (m *module) requestMissing() {
	var req any
	for _, q := range m.nbrs {
		if !m.edges[q].hold {
			if req == nil {
				req = reqMsg{TS: m.hungerTS}
			}
			m.k.Send(m.self, q, m.reqPort, req)
		}
	}
}

// scheduleRetry retransmits requests periodically while hungry, making the
// protocol robust to reorderings; retries to crashed holders are dropped by
// the network (the suspicion override unblocks us instead).
func (m *module) scheduleRetry() { m.k.After(m.self, m.cfg.Retry, m.retryFn) }

func (m *module) retry() {
	if m.State() != dining.Hungry {
		return
	}
	m.requestMissing()
	m.scheduleRetry()
}

// Reset reinstalls p's module state after a crash-restart: the diner returns
// to Thinking and every incident edge is resynchronized with its other
// endpoint via the sync/syncack handshake, which decides afresh who holds
// the edge's fork. Call it from the reboot hook of live.Runtime.Restart; the
// restart must happen strictly later than any message the dead incarnation
// had in flight (in practice: the crash->restart gap exceeds the link plan's
// longest hold on a message), otherwise a stale in-flight fork could coexist
// with a minted one.
func (t *Table) Reset(p rt.ProcID) {
	m := t.diner(p)
	m.Core.Reset()
	m.hungerTS = 0
	for _, q := range m.nbrs {
		e := m.edges[q]
		m.setHold(q, false)
		e.wanted = false
		e.resync = true
		m.k.Send(m.self, q, m.syncPort, syncMsg{})
	}
	m.scheduleSyncRetry()
}

// onSync answers a restarted neighbor's state query. Any deferred-request
// memory for that neighbor is dropped — its hunger session died with it. If
// both endpoints are resyncing the same edge at once (both restarted), the
// lower id mints the fork immediately and the ack tells the higher id it
// lost the tie; the resync guard in onSyncAck discards the mirror-image ack.
func (m *module) onSync(msg rt.Message) {
	q := msg.From
	e := m.edge(q)
	if e == nil {
		return
	}
	e.wanted = false
	if e.resync {
		e.resync = false
		if m.self < q {
			m.setHold(q, true)
		}
	}
	m.k.Send(m.self, q, m.syncAckPort, syncAckMsg{Hold: e.hold})
}

// onSyncAck resolves one pending edge of a resync: mint the fork iff the
// neighbor does not hold it. Duplicate or stale acks are ignored via the
// edge's resync bit, so replayed messages cannot mint a second fork.
func (m *module) onSyncAck(msg rt.Message) {
	q := msg.From
	e := m.edge(q)
	if e == nil || !e.resync {
		return
	}
	e.resync = false
	if !msg.Payload.(syncAckMsg).Hold {
		m.setHold(q, true)
		if e.wanted && m.State() == dining.Thinking {
			m.yield(q)
		}
	}
}

// scheduleSyncRetry retransmits outstanding sync queries, in neighbor order,
// until every edge is settled, so a resync survives message loss and a
// neighbor that is itself down for a while.
func (m *module) scheduleSyncRetry() { m.k.After(m.self, m.cfg.Retry, m.syncRetryFn) }

func (m *module) syncRetry() {
	pending := false
	for _, q := range m.nbrs {
		if m.edges[q].resync {
			pending = true
			m.k.Send(m.self, q, m.syncPort, syncMsg{})
		}
	}
	if pending {
		m.scheduleSyncRetry()
	}
}
