// Package token implements wait-free dining under eventual weak exclusion
// with a circulating token — a third, qualitatively different WF-◇WX black
// box for exercising the reduction's black-box universality.
//
// A single token visits the diners in id order (global mutual exclusion,
// which implies the local kind on every conflict graph). The holder eats if
// hungry, then forwards the token to the next live-looking diner. Crash
// tolerance is by regeneration: a hungry diner that has not seen the token
// for an adaptive timeout regenerates it with a higher epoch. Spurious
// regenerations (the token was merely slow) create duplicate tokens, whose
// concurrent holders may eat together — exactly the finitely many
// scheduling mistakes ◇WX permits. Duplicates die on contact: any process
// that has seen epoch e destroys tokens with epoch < e, and each piece of
// evidence of duplication (destroying an older token, or receiving one
// while holding) doubles the local regeneration timeout, so regeneration
// eventually stops being spurious and the single surviving token yields an
// exclusive suffix.
//
// The timeout-regeneration mechanism is this box's encapsulation of the
// very temporal assumptions the paper proves equivalent to ◇P: the box
// consults its oracle only to skip crashed diners when forwarding, while
// recovery from a *lost* token (crashed holder) rides on the adaptive
// timeout — either way, eventual weak exclusion plus wait-freedom emerge
// from eventually-reliable timing, which is the thesis of the paper made
// concrete a second way.
package token

import (
	"fmt"

	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
)

// Config tunes the token box.
type Config struct {
	// Timeout is the initial token-absence timeout before a hungry diner
	// regenerates (default 400; it doubles on every duplication observed).
	Timeout rt.Time
	// Check is the regeneration check period (default 50).
	Check rt.Time
}

// Table is a token dining instance.
type Table struct {
	name string
	g    *graph.Graph
	mods []*module // by ProcID; nil = not a diner
}

// New builds a token WF-◇WX dining instance over g. oracle (◇P class) is
// used to skip crashed diners when forwarding.
func New(k rt.Runtime, g *graph.Graph, name string, oracle detector.Oracle, cfg Config) *Table {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 400
	}
	if cfg.Check <= 0 {
		cfg.Check = 50
	}
	t := &Table{name: name, g: g, mods: make([]*module, g.Bound())}
	nodes := g.Nodes()
	for i, p := range nodes {
		t.mods[p] = newModule(k, name, p, nodes, i, oracle, cfg)
	}
	return t
}

// Factory returns a dining.Factory building token tables bound to oracle.
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
		panic(fmt.Sprintf("token: %d is not a diner of %s", p, t.name))
	}
	return t.mods[p]
}

// epoch totally orders tokens: (counter, minter id) lexicographically.
// Distinct minters can never produce equal epochs, so duplicate tokens are
// always comparable and the loser dies on first contact with any process
// that has seen the winner.
type epoch struct {
	C int64
	M rt.ProcID
}

func (e epoch) less(o epoch) bool {
	if e.C != o.C {
		return e.C < o.C
	}
	return e.M < o.M
}

type tokenMsg struct {
	Epoch epoch
}

type module struct {
	*dining.Core
	k    rt.Runtime
	self rt.ProcID
	ring []rt.ProcID // all diners in id order
	idx  int         // our position in ring
	view detector.View
	cfg  Config
	port rt.Port // name+"/token", made once

	hasToken  bool
	cur       epoch   // epoch of the held token
	tok       any     // tokenMsg{Epoch: cur}, boxed once per epoch
	maxSeen   epoch   // highest epoch ever seen
	lastSeen  rt.Time // when the token last visited us
	timeout   rt.Time // adaptive regeneration timeout
	eatingNow bool    // we eat with the token and forward on exit
}

func newModule(k rt.Runtime, name string, p rt.ProcID, ring []rt.ProcID, idx int, oracle detector.Oracle, cfg Config) *module {
	first := epoch{C: 1, M: ring[0]}
	m := &module{
		Core:    dining.NewCore(k, p, name),
		k:       k,
		self:    p,
		ring:    ring,
		idx:     idx,
		view:    detector.View{Oracle: oracle, Self: p},
		cfg:     cfg,
		port:    rt.PortOf(name + "/token"),
		timeout: cfg.Timeout,
		// The lowest-id diner starts with the token.
		hasToken: idx == 0,
		cur:      first,
		tok:      tokenMsg{Epoch: first},
		maxSeen:  first,
	}
	k.Handle(p, m.port, m.onToken)
	k.AddAction(p, name+"/eat", m.canEat, m.eat)
	k.AddAction(p, name+"/forward", m.canForward, m.forward)
	k.AddAction(p, name+"/exit-done", func() bool { return m.State() == dining.Exiting }, m.finishExit)
	var check func()
	check = func() {
		m.maybeRegenerate()
		k.After(p, cfg.Check, check)
	}
	k.After(p, 1+rt.Time(idx)%cfg.Check, check)
	return m
}

// Hungry implements dining.Diner.
func (m *module) Hungry() {
	m.Set(dining.Hungry)
	m.lastSeen = m.k.Now() // restart the clock for this hunger
}

// Exit implements dining.Diner.
func (m *module) Exit() { m.Set(dining.Exiting) }

// canEat: hold a current token while hungry.
func (m *module) canEat() bool {
	return m.State() == dining.Hungry && m.hasToken
}

func (m *module) eat() {
	m.eatingNow = true
	m.Set(dining.Eating)
}

// canForward: hold the token while not competing for it.
func (m *module) canForward() bool {
	return m.hasToken && m.State() != dining.Hungry && m.State() != dining.Eating && !m.eatingNow
}

// forward passes the token to the next diner the oracle considers live.
func (m *module) forward() {
	if !m.hasToken {
		return
	}
	n := len(m.ring)
	for off := 1; off <= n; off++ {
		q := m.ring[(m.idx+off)%n]
		if q == m.self {
			return // everyone else looks dead: keep the token
		}
		if !m.view.Suspected(q) {
			m.hasToken = false
			m.k.Send(m.self, q, m.port, m.tok)
			return
		}
	}
}

func (m *module) finishExit() {
	m.eatingNow = false
	m.Set(dining.Thinking)
	// The forward action's guard is enabled now; the kernel will run it.
}

func (m *module) onToken(msg rt.Message) {
	tok := msg.Payload.(tokenMsg)
	if tok.Epoch.less(m.maxSeen) {
		// A duplicate from a stale epoch: destroy it, and learn that
		// regeneration has been trigger-happy.
		m.timeout *= 2
		return
	}
	if m.maxSeen.less(tok.Epoch) {
		m.maxSeen = tok.Epoch
	}
	if m.hasToken {
		// Two tokens met here: keep the newer, learn.
		m.timeout *= 2
		if !m.cur.less(tok.Epoch) {
			return
		}
	}
	m.hasToken = true
	m.cur = tok.Epoch
	m.tok = msg.Payload // forwarded as received: no box per hop
	m.lastSeen = m.k.Now()
}

// maybeRegenerate fires when hungry and token-starved for the adaptive
// timeout: mint a fresh, higher epoch.
func (m *module) maybeRegenerate() {
	if m.State() != dining.Hungry || m.hasToken {
		return
	}
	if m.k.Now()-m.lastSeen < m.timeout {
		return
	}
	// Pay for the mint upfront: each regeneration doubles our own timeout,
	// so a process can only mint finitely often unless tokens keep being
	// really lost (crashes, which are finite). This is what bounds the
	// scheduling mistakes even when the minter never meets its duplicate.
	m.timeout *= 2
	m.maxSeen = epoch{C: m.maxSeen.C + 1, M: m.self}
	m.cur = m.maxSeen
	m.tok = tokenMsg{Epoch: m.cur}
	m.hasToken = true
	m.lastSeen = m.k.Now()
	m.k.Emit(rt.Record{P: m.self, Kind: "mark", Peer: -1, Inst: m.Inst,
		Note: fmt.Sprintf("regenerate epoch=%d.%d", m.cur.C, m.cur.M)})
}
