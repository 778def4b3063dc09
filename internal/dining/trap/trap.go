// Package trap implements the adversarial-but-legal WF-◇WX dining service
// that Section 3 of the paper uses to break the ◇P-extraction of Guerraoui,
// Kapalka and Kouznetsov ([8]).
//
// The service mirrors the convergence behavior of the construction in [12]:
// it guarantees an exclusive suffix only after (1) a designated "mistake
// era" [0, MistakeUntil) has passed, and (2) every diner that entered its
// critical section during the mistake era has exited. Concretely, a
// centralized coordinator grants a hungry diner immediately during the
// mistake era; afterwards it grants p when either no live neighbor of p is
// eating, or every live eating neighbor of p has been eating continuously
// since the mistake era.
//
// Why this is a legal WF-◇WX black box: the dining problem only promises
// anything in runs where correct diners eat for finite time (Section 8 of
// the paper). In every such run the mistake-era eaters eventually exit (or
// crash), after which the coordinator enforces strict exclusion — so runs
// satisfy ◇WX — and grants remain prompt — so runs are wait-free. But a
// client that enters its critical section during the mistake era and never
// exits (exactly what the subject of the [8] construction does) keeps the
// escape clause open forever: its peer is granted, and suspects it, in-
// finitely often. The reduction of this paper survives the trap because its
// subjects' eating sessions are always finite while the witness is live.
package trap

import (
	"fmt"

	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
)

// Table is a trap dining instance.
type Table struct {
	name  string
	g     *graph.Graph
	mods  []*stub // by ProcID; nil = not a diner
	coord *coordinator
}

// New builds a trap table over g with the coordinator at coord (not a
// vertex of g, never crashed) and the given mistake-era end.
func New(k rt.Runtime, g *graph.Graph, name string, coord rt.ProcID, mistakeUntil rt.Time) *Table {
	if g.Has(coord) {
		panic(fmt.Sprintf("trap: coordinator %d must not be a diner of %s", coord, name))
	}
	t := &Table{name: name, g: g, mods: make([]*stub, g.Bound())}
	t.coord = newCoordinator(k, g, name, coord, mistakeUntil)
	for _, p := range g.Nodes() {
		t.mods[p] = newStub(k, name, p, coord)
	}
	return t
}

// Factory returns a dining.Factory producing trap tables, allocating
// coordinators round-robin from coords.
func Factory(coords []rt.ProcID, mistakeUntil rt.Time) dining.Factory {
	next := 0
	return func(k rt.Runtime, g *graph.Graph, name string) dining.Table {
		c := coords[next%len(coords)]
		next++
		return New(k, g, name, c, mistakeUntil)
	}
}

// Name implements dining.Table.
func (t *Table) Name() string { return t.name }

// Graph implements dining.Table.
func (t *Table) Graph() *graph.Graph { return t.g }

// Diner implements dining.Table.
func (t *Table) Diner(p rt.ProcID) dining.Diner {
	if p < 0 || int(p) >= len(t.mods) || t.mods[p] == nil {
		panic(fmt.Sprintf("trap: %d is not a diner of %s", p, t.name))
	}
	return t.mods[p]
}

type stub struct {
	*dining.Core
	k     rt.Runtime
	self  rt.ProcID
	coord rt.ProcID
	seq   int64 // hunger session number; brackets HUNGRY/EXIT pairs

	hungryPort, exitPort rt.Port // name+"/hungry", name+"/exit", made once
}

func newStub(k rt.Runtime, name string, p, coord rt.ProcID) *stub {
	s := &stub{Core: dining.NewCore(k, p, name), k: k, self: p, coord: coord,
		hungryPort: rt.PortOf(name + "/hungry"), exitPort: rt.PortOf(name + "/exit")}
	k.Handle(p, rt.PortOf(name+"/eat"), func(rt.Message) {
		if s.State() == dining.Hungry {
			s.Set(dining.Eating)
		}
	})
	k.AddAction(p, name+"/exit-done", func() bool { return s.State() == dining.Exiting }, func() {
		s.Set(dining.Thinking)
	})
	return s
}

// Hungry implements dining.Diner.
func (s *stub) Hungry() {
	s.Set(dining.Hungry)
	s.seq++
	s.k.Send(s.self, s.coord, s.hungryPort, s.seq)
}

// Exit implements dining.Diner.
func (s *stub) Exit() {
	s.Set(dining.Exiting)
	s.k.Send(s.self, s.coord, s.exitPort, s.seq)
}

type grantInfo struct {
	at  rt.Time // grant time (mistake-era grants keep the escape open)
	seq int64   // session number of the booking
}

type coordinator struct {
	k            rt.Runtime
	g            *graph.Graph
	self         rt.ProcID
	eatPort      rt.Port // name+"/eat", made once
	mistakeUntil rt.Time
	hungry       []request
	eating       map[rt.ProcID]grantInfo
}

// request is one queued hunger (diner plus its session number).
type request struct {
	p   rt.ProcID
	seq int64
}

func newCoordinator(k rt.Runtime, g *graph.Graph, name string, self rt.ProcID, mistakeUntil rt.Time) *coordinator {
	c := &coordinator{
		k: k, g: g, self: self, eatPort: rt.PortOf(name + "/eat"),
		mistakeUntil: mistakeUntil,
		eating:       make(map[rt.ProcID]grantInfo),
	}
	k.Handle(self, rt.PortOf(name+"/hungry"), func(m rt.Message) {
		c.hungry = append(c.hungry, request{p: m.From, seq: m.Payload.(int64)})
	})
	k.Handle(self, rt.PortOf(name+"/exit"), func(m rt.Message) {
		// A stale EXIT (overtaken by the next HUNGRY of the same diner)
		// must not unbook a newer session.
		if gi, ok := c.eating[m.From]; ok && gi.seq == m.Payload.(int64) {
			delete(c.eating, m.From)
		}
	})
	k.AddAction(self, name+"/grant", c.canGrant, c.grant)
	var poll func()
	poll = func() { k.After(self, 20, poll) }
	k.After(self, 20, poll)
	return c
}

// blocked: during the mistake era nothing blocks; afterwards p is blocked
// unless every live eating neighbor has been eating since the mistake era
// (the escape clause that makes this a trap).
func (c *coordinator) blocked(p rt.ProcID) bool {
	if c.k.Now() < c.mistakeUntil {
		return false
	}
	for _, q := range c.g.Neighbors(p) {
		gi, ok := c.eating[q]
		if !ok {
			continue
		}
		if c.k.Crashed(q) {
			delete(c.eating, q)
			continue
		}
		if gi.at >= c.mistakeUntil {
			return true // a post-era eater: strict exclusion applies
		}
		// q has eaten continuously since the mistake era: escape clause.
	}
	return false
}

func (c *coordinator) nextGrantable() int {
	for i, r := range c.hungry {
		if c.k.Crashed(r.p) || !c.blocked(r.p) {
			return i
		}
	}
	return -1
}

func (c *coordinator) canGrant() bool { return c.nextGrantable() >= 0 }

func (c *coordinator) grant() {
	i := c.nextGrantable()
	if i < 0 {
		return
	}
	r := c.hungry[i]
	c.hungry = append(c.hungry[:i], c.hungry[i+1:]...)
	if c.k.Crashed(r.p) {
		return
	}
	c.eating[r.p] = grantInfo{at: c.k.Now(), seq: r.seq}
	c.k.Send(c.self, r.p, c.eatPort, nil)
}
