// Package perfect provides an idealized centralized dining service used as
// a differential-testing baseline and as the perpetual weak exclusion (ℙWX)
// black box for the Section 9 experiment.
//
// A dedicated coordinator process serializes scheduling: diners send HUNGRY
// and EXIT notifications; the coordinator grants EAT to a hungry diner only
// when none of its live neighbors is eating in the coordinator's books.
// Because the eating set is updated at grant time (before the grant message
// is even sent), two live neighbors are never booked simultaneously, so the
// service satisfies perpetual weak exclusion. Crashed eaters are released
// using the fault schedule — the oracle power (trusting accuracy) that the
// paper shows ℙWX requires and that partially synchronous message passing
// cannot supply; see DESIGN.md's substitution table.
//
// The coordinator process itself is assumed reliable (it is a specification
// device, not a protocol under test); experiments never crash it.
package perfect

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

// New builds a centralized ℙWX wait-free dining instance over g whose
// coordinator runs at process coord (which must not be a vertex of g and
// must never crash).
func New(k rt.Runtime, g *graph.Graph, name string, coord rt.ProcID) *Table {
	if g.Has(coord) {
		panic(fmt.Sprintf("perfect: coordinator %d must not be a diner of %s", coord, name))
	}
	t := &Table{name: name, g: g, mods: make([]*stub, g.Bound())}
	t.coord = newCoordinator(k, g, name, coord)
	for _, p := range g.Nodes() {
		t.mods[p] = newStub(k, name, p, coord)
	}
	return t
}

// Factory returns a dining.Factory producing centralized tables whose
// coordinators are allocated round-robin from coords.
func Factory(coords []rt.ProcID) dining.Factory {
	next := 0
	return func(k rt.Runtime, g *graph.Graph, name string) dining.Table {
		c := coords[next%len(coords)]
		next++
		return New(k, g, name, c)
	}
}

// Name implements dining.Table.
func (t *Table) Name() string { return t.name }

// Graph implements dining.Table.
func (t *Table) Graph() *graph.Graph { return t.g }

// Diner implements dining.Table.
func (t *Table) Diner(p rt.ProcID) dining.Diner {
	if p < 0 || int(p) >= len(t.mods) || t.mods[p] == nil {
		panic(fmt.Sprintf("perfect: %d is not a diner of %s", p, t.name))
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

// coordinator is the service-side scheduler.
type coordinator struct {
	k       rt.Runtime
	g       *graph.Graph
	self    rt.ProcID
	eatPort rt.Port             // name+"/eat", made once
	hungry  []request           // FIFO arrival order
	eating  map[rt.ProcID]int64 // eater -> session number of the booking
}

func newCoordinator(k rt.Runtime, g *graph.Graph, name string, self rt.ProcID) *coordinator {
	c := &coordinator{k: k, g: g, self: self, eatPort: rt.PortOf(name + "/eat"), eating: make(map[rt.ProcID]int64)}
	k.Handle(self, rt.PortOf(name+"/hungry"), func(m rt.Message) {
		c.hungry = append(c.hungry, request{p: m.From, seq: m.Payload.(int64)})
	})
	k.Handle(self, rt.PortOf(name+"/exit"), func(m rt.Message) {
		// A stale EXIT (overtaken by the next HUNGRY of the same diner)
		// must not unbook a newer session.
		if c.eating[m.From] == m.Payload.(int64) {
			delete(c.eating, m.From)
		}
	})
	k.AddAction(self, name+"/grant", c.canGrant, c.grant)
	// Periodic poll so that a crash of an eater (which sends no EXIT) cannot
	// leave the coordinator idle with blocked hungry diners forever.
	var poll func()
	poll = func() { k.After(self, 20, poll) }
	k.After(self, 20, poll)
	return c
}

// blocked reports whether granting p now would book two live neighbors.
// Crashed diners are released from the books lazily here (the fault
// schedule stands in for the trusting oracle, per the package comment).
func (c *coordinator) blocked(p rt.ProcID) bool {
	for _, q := range c.g.Neighbors(p) {
		if _, ok := c.eating[q]; ok {
			if c.k.Crashed(q) {
				delete(c.eating, q)
				continue
			}
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

// canGrant reads Crashed, on whose every change the kernel re-judges guards
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
	c.eating[r.p] = r.seq
	c.k.Send(c.self, r.p, c.eatPort, nil)
}
