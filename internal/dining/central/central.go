// Package central is the paper's centralized dining black box: one
// dedicated coordinator process schedules every diner of a table. Diners
// send HUNGRY and EXIT notifications; the coordinator books a hungry diner
// as eating when it grants it, before the grant message is even sent, and
// grants only where its books show no blocking neighbour. The coordinator is
// a specification device, not a protocol under test: it must not be a diner
// and experiments never crash it.
//
// One parameter, the mistake era [0, era), makes it either of the paper's
// two centralized boxes. Before the era's end nothing blocks; after it a
// hungry diner is blocked by every live booked neighbour granted at or after
// the era's end.
//
// With era 0 every grant is post-era, so any live booked neighbour blocks:
// two live neighbours are never booked together, and the table is the
// idealized perpetual weak exclusion (ℙWX) service of Section 9, also the
// differential baseline. Crashed eaters stop blocking by the fault schedule
// — the oracle power (trusting accuracy) that the paper shows ℙWX requires
// and that partially synchronous message passing cannot supply; see
// DESIGN.md's substitution table.
//
// With era > 0 it is the adversarial-but-legal WF-◇WX service that
// Section 3 uses to break the ◇P extraction of Guerraoui, Kapalka and
// Kouznetsov ([8]), mirroring the convergence of the construction in [12]:
// it grants at once during the era, and afterwards lets a neighbour that has
// eaten continuously since the era escape exclusion. That is legal because
// the dining problem only promises anything in runs where correct diners
// eat for finite time (Section 8 of the paper): there the era's eaters
// eventually exit or crash, after which exclusion is strict — so the run
// satisfies ◇WX — and grants stay prompt — so it is wait-free. But a client
// that enters its critical section during the era and never exits (exactly
// the subject of the [8] construction) keeps the escape open forever: its
// peer is granted, and suspects it, infinitely often. The reduction of this
// paper survives the trap because its subjects' eating sessions are always
// finite while the witness is live.
package central

import (
	"fmt"

	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
)

// Table is a centralized dining instance.
type Table struct {
	name  string
	g     *graph.Graph
	mods  []*stub // by ProcID; nil = not a diner
	coord *coordinator
}

// New builds a centralized table over g whose coordinator runs at process
// coord (not a vertex of g, never crashed), with the mistake era [0, era):
// era 0 is the ℙWX service, era > 0 the Section 3 trap.
func New(k rt.Runtime, g *graph.Graph, name string, coord rt.ProcID, era rt.Time) *Table {
	if g.Has(coord) {
		panic(fmt.Sprintf("central: coordinator %d must not be a diner of %s", coord, name))
	}
	t := &Table{name: name, g: g, mods: make([]*stub, g.Bound())}
	t.coord = newCoordinator(k, g, name, coord, era)
	for _, p := range g.Nodes() {
		t.mods[p] = newStub(k, name, p, coord)
	}
	return t
}

// Factory returns a dining.Factory producing centralized tables with the
// mistake era [0, era), allocating coordinators round-robin from coords.
func Factory(coords []rt.ProcID, era rt.Time) dining.Factory {
	next := 0
	return func(k rt.Runtime, g *graph.Graph, name string) dining.Table {
		c := coords[next%len(coords)]
		next++
		return New(k, g, name, c, era)
	}
}

// Name implements dining.Table.
func (t *Table) Name() string { return t.name }

// Graph implements dining.Table.
func (t *Table) Graph() *graph.Graph { return t.g }

// Diner implements dining.Table.
func (t *Table) Diner(p rt.ProcID) dining.Diner {
	if p < 0 || int(p) >= len(t.mods) || t.mods[p] == nil {
		panic(fmt.Sprintf("central: %d is not a diner of %s", p, t.name))
	}
	return t.mods[p]
}

// stub is the diner-side module: it reflects coordinator grants into the
// local state machine.
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

// request is one queued hunger (diner plus its session number).
type request struct {
	p   rt.ProcID
	seq int64
}

// booking is one granted session in the coordinator's books.
type booking struct {
	at  rt.Time // grant time (an era grant keeps the escape open)
	seq int64   // session number of the booking
}

// coordinator is the service-side scheduler.
type coordinator struct {
	k       rt.Runtime
	g       *graph.Graph
	self    rt.ProcID
	eatPort rt.Port // name+"/eat", made once
	era     rt.Time // end of the mistake era
	hungry  []request
	eating  map[rt.ProcID]booking // at most one entry per diner
}

func newCoordinator(k rt.Runtime, g *graph.Graph, name string, self rt.ProcID, era rt.Time) *coordinator {
	c := &coordinator{k: k, g: g, self: self, eatPort: rt.PortOf(name + "/eat"),
		era: era, eating: make(map[rt.ProcID]booking)}
	k.Handle(self, rt.PortOf(name+"/hungry"), func(m rt.Message) {
		c.hungry = append(c.hungry, request{p: m.From, seq: m.Payload.(int64)})
	})
	k.Handle(self, rt.PortOf(name+"/exit"), func(m rt.Message) {
		// A stale EXIT (overtaken by the next HUNGRY of the same diner)
		// must not unbook a newer session.
		if b, ok := c.eating[m.From]; ok && b.seq == m.Payload.(int64) {
			delete(c.eating, m.From)
		}
	})
	k.AddAction(self, name+"/grant", c.canGrant, c.grant)
	// An idle 20-tick poll. Every crash re-judges every guard (rt.Runtime's
	// guard clause), so the poll serves no liveness; it stays because its
	// timers take event seqs and step draws that every recorded trace of
	// this box carries.
	var poll func()
	poll = func() { k.After(self, 20, poll) }
	k.After(self, 20, poll)
	return c
}

// blocked reports whether granting p now would book it beside a live
// neighbour that exclusion protects: none during the era, and afterwards
// every live booked neighbour granted since the era's end. A crashed eater
// stays booked but never blocks (the fault schedule stands in for the
// trusting oracle); the books stay bounded by the number of diners.
func (c *coordinator) blocked(p rt.ProcID) bool {
	if c.k.Now() < c.era {
		return false
	}
	for _, q := range c.g.Neighbors(p) {
		if b, ok := c.eating[q]; ok && b.at >= c.era && !c.k.Crashed(q) {
			return true
		}
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

// canGrant reads Crashed, on whose every change the kernel re-judges guards,
// and the clock, which only turns it false: the era's end adds blocking
// (rt.Runtime's guard clause).
func (c *coordinator) canGrant() bool { return c.nextGrantable() >= 0 }

func (c *coordinator) grant() {
	i := c.nextGrantable()
	if i < 0 {
		return
	}
	r := c.hungry[i]
	c.hungry = append(c.hungry[:i], c.hungry[i+1:]...)
	if c.k.Crashed(r.p) {
		return // drop requests of crashed diners
	}
	c.eating[r.p] = booking{at: c.k.Now(), seq: r.seq}
	c.k.Send(c.self, r.p, c.eatPort, nil)
}
