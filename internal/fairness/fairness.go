// Package fairness implements wait-free, eventually weakly exclusive dining
// with *eventual 2-fairness*, in the style of the construction the paper
// cites as [13] (Song and Pike): for every run there is a time after which
// no process eats more than twice while a correct neighbor stays hungry.
//
// Together with package core this realizes the paper's secondary result as
// a two-step pipeline: take any black-box WF-◇WX solution, extract ◇P from
// it with the reduction, and feed the extracted oracle to this layer to
// obtain a WF-◇WX solution with the strictly stronger eventual 2-fairness
// service property (see the E7 experiment and examples/fairdining).
//
// Mechanically the layer is the timestamp-priority fork algorithm of
// package forks plus an overtaking throttle. Every process announces its
// hunger (stamped with its Lamport hunger timestamp) and its meals to its
// neighbors. A hungry process defers to a neighbor q — refuses to start its
// (K+1)-th meal during q's current announced hunger — when q's hunger is
// older than its own. Deference follows the total order on (timestamp, id),
// so deference cycles, and hence deadlocks, are impossible; suspected
// neighbors are exempt, so crashes cannot block the throttle (wait-freedom
// survives). Before the oracle and the announcements stabilize the throttle
// can be wrong in both directions, which is fine: ◇WX and eventual
// 2-fairness both promise only a suffix.
package fairness

import (
	"fmt"

	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
)

// Config tunes the layer.
type Config struct {
	Retry rt.Time // request/announcement retransmission period (default 25)
	K     int     // overtaking bound (default 2, the paper's bound)
}

// Table is an eventually k-fair WF-◇WX dining instance.
type Table struct {
	name string
	g    *graph.Graph
	mods []*module // by ProcID; nil = not a diner
}

// New builds the fair dining instance over g using oracle (any ◇P — native
// or extracted by the reduction).
func New(k rt.Runtime, g *graph.Graph, name string, oracle detector.Oracle, cfg Config) *Table {
	if cfg.Retry <= 0 {
		cfg.Retry = 25
	}
	if cfg.K <= 0 {
		cfg.K = 2
	}
	t := &Table{name: name, g: g, mods: make([]*module, g.Bound())}
	for _, p := range g.Nodes() {
		t.mods[p] = newModule(k, g, name, p, oracle, cfg)
	}
	return t
}

// Factory returns a dining.Factory building fair tables bound to oracle.
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
func (t *Table) Diner(p rt.ProcID) dining.Diner {
	if p < 0 || int(p) >= len(t.mods) || t.mods[p] == nil {
		panic(fmt.Sprintf("fairness: %d is not a diner of %s", p, t.name))
	}
	return t.mods[p]
}

type edge struct {
	hold   bool
	wanted bool
	// Neighbor hunger bookkeeping for the throttle.
	nbrHungry   bool
	nbrHungerTS int64 // Lamport timestamp of the neighbor's current hunger
	endedTS     int64 // highest neighbor hunger session known to have ended
	mealsDuring int   // our meals completed during that hunger
}

type reqMsg struct{ TS int64 }
type forkMsg struct{}
type hungerMsg struct{ TS int64 }
type ateMsg struct{ TS int64 } // the hunger-session timestamp the meal concluded

type module struct {
	*dining.Core
	k     rt.Runtime
	self  rt.ProcID
	nbrs  []rt.ProcID
	edges map[rt.ProcID]*edge
	view  detector.View
	cfg   Config
	// The ports, made once: name+"/req" and so on.
	reqPort, forkPort, hungerPort, atePort rt.Port

	clock    int64
	hungerTS int64
}

func newModule(k rt.Runtime, g *graph.Graph, name string, p rt.ProcID, oracle detector.Oracle, cfg Config) *module {
	m := &module{
		Core:       dining.NewCore(k, p, name),
		k:          k,
		self:       p,
		nbrs:       g.Neighbors(p),
		edges:      make(map[rt.ProcID]*edge),
		view:       detector.View{Oracle: oracle, Self: p},
		cfg:        cfg,
		reqPort:    rt.PortOf(name + "/req"),
		forkPort:   rt.PortOf(name + "/fork"),
		hungerPort: rt.PortOf(name + "/hunger"),
		atePort:    rt.PortOf(name + "/ate"),
	}
	for _, q := range m.nbrs {
		m.edges[q] = &edge{hold: p < q}
	}
	k.Handle(p, m.reqPort, m.onReq)
	k.Handle(p, m.forkPort, m.onFork)
	k.Handle(p, m.hungerPort, m.onHunger)
	k.Handle(p, m.atePort, m.onAte)
	k.AddAction(p, name+"/eat", m.canEat, m.eat)
	k.AddAction(p, name+"/exit-done", func() bool { return m.State() == dining.Exiting }, m.finishExit)
	return m
}

// Hungry implements dining.Diner: stamp, announce, and chase forks.
func (m *module) Hungry() {
	m.Set(dining.Hungry)
	m.clock++
	m.hungerTS = m.clock
	for _, q := range m.nbrs {
		m.k.Send(m.self, q, m.hungerPort, hungerMsg{TS: m.hungerTS})
	}
	m.requestMissing()
	m.scheduleRetry()
}

// Exit implements dining.Diner.
func (m *module) Exit() { m.Set(dining.Exiting) }

// canEat: the fork condition plus the fairness throttle.
func (m *module) canEat() bool {
	if m.State() != dining.Hungry {
		return false
	}
	for _, q := range m.nbrs {
		e := m.edges[q]
		suspected := m.view.Suspected(q)
		if !e.hold && !suspected {
			return false
		}
		// Throttle: defer to an older hungry live neighbor we have already
		// overtaken K times. The (TS, id) total order makes deference
		// acyclic.
		if !suspected && e.nbrHungry && e.mealsDuring >= m.cfg.K &&
			older(e.nbrHungerTS, q, m.hungerTS, m.self) {
			return false
		}
	}
	return true
}

func older(ts int64, p rt.ProcID, ts2 int64, q rt.ProcID) bool {
	if ts != ts2 {
		return ts < ts2
	}
	return p < q
}

func (m *module) eat() { m.Set(dining.Eating) }

func (m *module) finishExit() {
	for _, q := range m.nbrs {
		e := m.edges[q]
		// This meal counts against every neighbor hungry throughout it.
		if e.nbrHungry {
			e.mealsDuring++
		}
		m.k.Send(m.self, q, m.atePort, ateMsg{TS: m.hungerTS})
		if e.wanted && e.hold {
			m.yield(q)
		}
	}
	m.Set(dining.Thinking)
}

func (m *module) onHunger(msg rt.Message) {
	e := m.edges[msg.From]
	h := msg.Payload.(hungerMsg)
	if h.TS > m.clock {
		m.clock = h.TS
	}
	if h.TS <= e.endedTS {
		return // stale re-announcement of an already-concluded hunger
	}
	if !e.nbrHungry || h.TS > e.nbrHungerTS {
		e.nbrHungry = true
		e.nbrHungerTS = h.TS
		e.mealsDuring = 0
	}
}

func (m *module) onAte(msg rt.Message) {
	// The neighbor completed a meal, concluding the announced hunger
	// session with the given timestamp (it will announce any new one).
	e := m.edges[msg.From]
	a := msg.Payload.(ateMsg)
	if a.TS > e.endedTS {
		e.endedTS = a.TS
	}
	if e.nbrHungry && e.nbrHungerTS <= a.TS {
		e.nbrHungry = false
		e.mealsDuring = 0
	}
}

func (m *module) onReq(msg rt.Message) {
	q := msg.From
	e, ok := m.edges[q]
	if !ok {
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
			e.wanted = true
		} else {
			m.yield(q)
		}
	default:
		m.yield(q)
	}
}

func (m *module) onFork(msg rt.Message) {
	e, ok := m.edges[msg.From]
	if !ok {
		return
	}
	e.hold = true
	if e.wanted && m.State() == dining.Thinking {
		m.yield(msg.From)
	}
}

func (m *module) yield(q rt.ProcID) {
	e := m.edges[q]
	e.hold = false
	e.wanted = false
	m.k.Send(m.self, q, m.forkPort, forkMsg{})
	if m.State() == dining.Hungry {
		m.k.Send(m.self, q, m.reqPort, reqMsg{TS: m.hungerTS})
	}
}

func (m *module) requestMissing() {
	for _, q := range m.nbrs {
		if !m.edges[q].hold {
			m.k.Send(m.self, q, m.reqPort, reqMsg{TS: m.hungerTS})
		}
	}
}

func (m *module) scheduleRetry() {
	m.k.After(m.self, m.cfg.Retry, func() {
		if m.State() != dining.Hungry {
			return
		}
		m.requestMissing()
		// Re-announce hunger so the throttle state survives message races.
		for _, q := range m.nbrs {
			m.k.Send(m.self, q, m.hungerPort, hungerMsg{TS: m.hungerTS})
		}
		m.scheduleRetry()
	})
}
