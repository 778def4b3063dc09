package chaos

import (
	"fmt"

	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
)

// This file plants a bug for the campaign engine to catch: a mutated
// variant of the forks box (internal/dining/forks) whose crash-tolerance
// line has been dropped. The real algorithm lets a hungry diner eat when
// every missing fork belongs to a neighbor its ◇P module suspects — that
// override is the entire wait-freedom story under crashes. The mutant's
// canEat requires every fork to be physically held, full stop.
//
// The mutant is deliberately latent: in crash-free runs it is
// indistinguishable from the real box (the classical fork argument gives
// exclusion and liveness without any oracle), so a weak adversary never
// sees it. The bug manifests only when a crash strikes a fork holder at
// the wrong moment — a diner that dies mid-eating-session takes its forks
// to the grave and its correct hungry neighbors starve forever. That is
// exactly the strike the campaign's state-triggered "eating" fault plan
// engineers, and the shrinker must then discover that the crash is the one
// ingredient it cannot drop: shrunk repros keep a single crash (≤ 2 by the
// acceptance bar) and lose everything else.
//
// An earlier candidate mutation — the suspicion override *seizing* the
// forks it excuses — turned out to self-heal: the protocol's deferred-
// request bookkeeping makes the duplicated fork collapse back to one copy
// at the next exit, so violations never persist into the convergence
// suffix. The forks box is genuinely robust to that corruption; the chaos
// engine needs a bug that stays caught.

type buggyTable struct {
	name string
	g    *graph.Graph
	mods []*buggyModule // by ProcID; nil = not a diner
}

func newBuggyTable(k rt.Runtime, g *graph.Graph, name string, oracle detector.Oracle) *buggyTable {
	t := &buggyTable{name: name, g: g, mods: make([]*buggyModule, g.Bound())}
	for _, p := range g.Nodes() {
		t.mods[p] = newBuggyModule(k, g, name, p, oracle)
	}
	return t
}

func (t *buggyTable) Name() string        { return t.name }
func (t *buggyTable) Graph() *graph.Graph { return t.g }
func (t *buggyTable) Diner(p sim.ProcID) dining.Diner {
	if p < 0 || int(p) >= len(t.mods) || t.mods[p] == nil {
		panic(fmt.Sprintf("buggy: %d is not a diner of %s", p, t.name))
	}
	return t.mods[p]
}

type buggyEdge struct {
	hold   bool
	wanted bool
}

type buggyReq struct {
	TS int64
}

type buggyFork struct{}

type buggyModule struct {
	*dining.Core
	k     rt.Runtime
	self  sim.ProcID
	nbrs  []sim.ProcID
	edges map[sim.ProcID]*buggyEdge
	view  detector.View
	// The ports, made once: name+"/req" and name+"/fork".
	reqPort, forkPort rt.Port

	clock    int64
	hungerTS int64
}

const buggyRetry = 25

func newBuggyModule(k rt.Runtime, g *graph.Graph, name string, p sim.ProcID, oracle detector.Oracle) *buggyModule {
	m := &buggyModule{
		Core:     dining.NewCore(k, p, name),
		k:        k,
		self:     p,
		nbrs:     g.Neighbors(p),
		edges:    make(map[sim.ProcID]*buggyEdge),
		view:     detector.View{Oracle: oracle, Self: p},
		reqPort:  rt.PortOf(name + "/req"),
		forkPort: rt.PortOf(name + "/fork"),
	}
	for _, q := range m.nbrs {
		m.edges[q] = &buggyEdge{hold: p < q}
	}
	k.Handle(p, m.reqPort, m.onReq)
	k.Handle(p, m.forkPort, m.onFork)
	k.AddAction(p, name+"/eat", m.canEat, m.eat)
	k.AddAction(p, name+"/exit-done", func() bool { return m.State() == dining.Exiting }, m.finishExit)
	return m
}

func (m *buggyModule) Hungry() {
	m.Set(dining.Hungry)
	m.clock++
	m.hungerTS = m.clock
	m.requestMissing()
	m.scheduleRetry()
}

func (m *buggyModule) Exit() { m.Set(dining.Exiting) }

// canEat carries the planted bug: the real box also eats when every missing
// fork's holder is suspected (the ◇P override); the mutant demands physical
// possession, so a crashed holder blocks its neighbors forever.
func (m *buggyModule) canEat() bool {
	if m.State() != dining.Hungry {
		return false
	}
	for _, q := range m.nbrs {
		if !m.edges[q].hold { // BUG: `&& !m.view.Suspected(q)` dropped
			return false
		}
	}
	return true
}

func (m *buggyModule) eat() { m.Set(dining.Eating) }

func (m *buggyModule) finishExit() {
	for _, q := range m.nbrs {
		if e := m.edges[q]; e.wanted && e.hold {
			m.yield(q)
		}
	}
	m.Set(dining.Thinking)
}

func (m *buggyModule) onReq(msg sim.Message) {
	q := msg.From
	e, ok := m.edges[q]
	if !ok {
		return
	}
	req := msg.Payload.(buggyReq)
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
		if m.hungerTS < req.TS || (m.hungerTS == req.TS && m.self < q) {
			e.wanted = true
		} else {
			m.yield(q)
		}
	default:
		m.yield(q)
	}
}

func (m *buggyModule) onFork(msg sim.Message) {
	e, ok := m.edges[msg.From]
	if !ok {
		return
	}
	e.hold = true
	if e.wanted && m.State() == dining.Thinking {
		m.yield(msg.From)
	}
}

func (m *buggyModule) yield(q sim.ProcID) {
	e := m.edges[q]
	e.hold = false
	e.wanted = false
	m.k.Send(m.self, q, m.forkPort, buggyFork{})
	if m.State() == dining.Hungry {
		m.k.Send(m.self, q, m.reqPort, buggyReq{TS: m.hungerTS})
	}
}

func (m *buggyModule) requestMissing() {
	for _, q := range m.nbrs {
		if !m.edges[q].hold {
			m.k.Send(m.self, q, m.reqPort, buggyReq{TS: m.hungerTS})
		}
	}
}

func (m *buggyModule) scheduleRetry() {
	m.k.After(m.self, buggyRetry, func() {
		if m.State() != dining.Hungry {
			return
		}
		m.requestMissing()
		m.scheduleRetry()
	})
}
