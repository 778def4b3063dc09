// Package mutex implements fault-tolerant mutual exclusion (FTME): a
// wait-free dining service under *perpetual* weak exclusion (ℙWX) on a
// clique conflict graph, in the style of Delporte-Gallet, Fauconnier,
// Guerraoui and Kouznetsov ([4] in the paper).
//
// The algorithm is permission-based (Ricart–Agrawala shaped) and uses a
// trusting failure detector T:
//
//   - A hungry process timestamps its request with a Lamport clock and asks
//     every other participant for permission.
//   - A participant grants immediately unless it is eating, or it is hungry
//     with an older (timestamp, id) request of its own; deferred grants are
//     sent on exit (or on losing priority).
//   - A hungry process enters its critical section once every other
//     participant has either granted this request or is suspected by T.
//
// Safety relies on the oracle's suspicions being *perpetually* accurate:
// a suspected process has really crashed, so skipping its permission never
// admits two live eaters; between live processes the classic
// Ricart–Agrawala argument applies (of two concurrent requests, exactly one
// has priority, and a process never grants while eating). Wait-freedom
// relies on strong completeness (crashed participants are eventually
// suspected) plus finite eating.
//
// The oracle requirement is exactly what [4]'s composition T+S buys where
// it matters; this repository's model-true stand-in is detector.Perfect
// (suspects exactly the crashed — see DESIGN.md's substitution table). Two
// negative results from the paper fall out of weakening it, and the tests
// demonstrate both:
//
//   - ◇P instead: transient false suspicions admit two live eaters — the
//     paper's remark (citing [11]) that ◇P cannot give wait-free ℙWX
//     (TestEventuallyPerfectIsInsufficient).
//   - an earned-trust T alone: a live participant that has not yet been
//     trusted is indistinguishable from one that crashed at birth, and
//     skipping it admits two live eaters — the paper's Section 9 closing
//     claim that T by itself is insufficient for wait-free mutual
//     exclusion (TestTrustAloneIsInsufficient).
package mutex

import (
	"fmt"

	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
)

// Table is an FTME instance: a dining table over a clique.
type Table struct {
	name string
	g    *graph.Graph
	mods []*module // by ProcID; nil = not a diner
}

// New builds an FTME instance over the participants in g (which must be a
// clique for mutual exclusion proper; any graph is accepted and treated as
// "ask all neighbors"). oracle is consulted as a trusting detector.
func New(k rt.Runtime, g *graph.Graph, name string, oracle detector.Oracle) *Table {
	t := &Table{name: name, g: g, mods: make([]*module, g.Bound())}
	for _, p := range g.Nodes() {
		t.mods[p] = newModule(k, g, name, p, oracle)
	}
	return t
}

// Factory returns a dining.Factory building FTME instances bound to oracle.
// The resulting factory is the wait-free ℙWX black box of the Section 9
// experiment.
func Factory(oracle detector.Oracle) dining.Factory {
	return func(k rt.Runtime, g *graph.Graph, name string) dining.Table {
		return New(k, g, name, oracle)
	}
}

// Name implements dining.Table.
func (t *Table) Name() string { return t.name }

// Graph implements dining.Table.
func (t *Table) Graph() *graph.Graph { return t.g }

// Diner implements dining.Table.
func (t *Table) Diner(p rt.ProcID) dining.Diner {
	if p < 0 || int(p) >= len(t.mods) || t.mods[p] == nil {
		panic(fmt.Sprintf("mutex: %d is not a participant of %s", p, t.name))
	}
	return t.mods[p]
}

type reqMsg struct {
	TS  int64
	Seq int64 // requester-local request number, echoed in grants
}

type grantMsg struct {
	Seq int64
}

type peerState struct {
	granted  bool    // granted my current request
	deferred *reqMsg // their request I owe a grant for
}

type module struct {
	*dining.Core
	k    rt.Runtime
	self rt.ProcID
	nbrs []rt.ProcID
	view detector.View
	// The ports, made once: name+"/req" and name+"/grant".
	reqPort, grantPort rt.Port

	clock  int64 // Lamport clock
	reqTS  int64 // timestamp of my current request
	reqSeq int64 // sequence number of my current request
	peers  map[rt.ProcID]*peerState
}

func newModule(k rt.Runtime, g *graph.Graph, name string, p rt.ProcID, oracle detector.Oracle) *module {
	m := &module{
		Core:      dining.NewCore(k, p, name),
		k:         k,
		self:      p,
		nbrs:      g.Neighbors(p),
		view:      detector.View{Oracle: oracle, Self: p},
		reqPort:   rt.PortOf(name + "/req"),
		grantPort: rt.PortOf(name + "/grant"),
		peers:     make(map[rt.ProcID]*peerState),
	}
	for _, q := range m.nbrs {
		m.peers[q] = &peerState{}
	}
	k.Handle(p, m.reqPort, m.onReq)
	k.Handle(p, m.grantPort, m.onGrant)
	k.AddAction(p, name+"/enter", m.canEnter, m.enter)
	k.AddAction(p, name+"/exit-done", func() bool { return m.State() == dining.Exiting }, m.finishExit)
	// Suspicion changes happen at detector timers of other modules; poll so
	// a crash of a peer cannot leave us blocked with no wake-up.
	var poll func()
	poll = func() { k.After(p, 15, poll) }
	k.After(p, 15, poll)
	return m
}

// Hungry implements dining.Diner: timestamp and broadcast the request.
func (m *module) Hungry() {
	m.Set(dining.Hungry)
	m.clock++
	m.reqTS = m.clock
	m.reqSeq++
	for _, q := range m.nbrs {
		m.peers[q].granted = false
		m.k.Send(m.self, q, m.reqPort, reqMsg{TS: m.reqTS, Seq: m.reqSeq})
	}
}

// Exit implements dining.Diner.
func (m *module) Exit() {
	m.Set(dining.Exiting)
}

// precedes reports whether the request (ts, p) has priority over (ts2, q).
func precedes(ts int64, p rt.ProcID, ts2 int64, q rt.ProcID) bool {
	if ts != ts2 {
		return ts < ts2
	}
	return p < q
}

func (m *module) onReq(msg rt.Message) {
	req := msg.Payload.(reqMsg)
	if req.TS > m.clock {
		m.clock = req.TS
	}
	q := msg.From
	ps := m.peers[q]
	switch {
	case m.State() == dining.Eating || m.State() == dining.Exiting:
		// Defer until the critical section is fully released.
		ps.deferred = &req
	case m.State() == dining.Hungry && precedes(m.reqTS, m.self, req.TS, q):
		// My pending request is older: defer.
		ps.deferred = &req
	default:
		m.k.Send(m.self, q, m.grantPort, grantMsg{Seq: req.Seq})
	}
}

func (m *module) onGrant(msg rt.Message) {
	g := msg.Payload.(grantMsg)
	if m.State() != dining.Hungry || g.Seq != m.reqSeq {
		return // stale grant for an old request
	}
	m.peers[msg.From].granted = true
}

// canEnter: every peer granted or (trusting oracle) suspected.
func (m *module) canEnter() bool {
	if m.State() != dining.Hungry {
		return false
	}
	for _, q := range m.nbrs {
		if !m.peers[q].granted && !m.view.Suspected(q) {
			return false
		}
	}
	return true
}

func (m *module) enter() { m.Set(dining.Eating) }

func (m *module) finishExit() {
	for _, q := range m.nbrs {
		ps := m.peers[q]
		if ps.deferred != nil {
			m.k.Send(m.self, q, m.grantPort, grantMsg{Seq: ps.deferred.Seq})
			ps.deferred = nil
		}
	}
	m.Set(dining.Thinking)
}
