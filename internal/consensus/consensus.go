// Package consensus implements Chandra–Toueg rotating-coordinator consensus
// for crash-prone asynchronous message-passing systems equipped with an
// unreliable failure detector.
//
// The paper's introduction lists consensus as one of the problems ◇P is
// strong enough to solve; this package closes that loop downstream of the
// reduction: the oracle *extracted from a black-box dining service* can be
// plugged in here and a majority of correct processes then reaches
// agreement (experiment E12). The algorithm actually needs only ◇S (a
// weaker class that ◇P subsumes), so any oracle in this repository works.
//
// Protocol sketch (round r, coordinator c = r mod n):
//
//  1. estimate: everyone sends its current (estimate, stamp) to c.
//  2. propose: c picks the estimate with the freshest stamp among a
//     majority and broadcasts it as the round's proposal.
//  3. ack: a participant that receives the proposal adopts it (stamping it
//     with r) and acks; one whose detector suspects c nacks instead.
//  4. decide: if c gathers a majority of acks it decides and reliably
//     broadcasts the decision; a majority of nacks (or none of acks) moves
//     everyone to round r+1.
//
// Safety (agreement, validity) never depends on the detector; termination
// requires a majority of correct processes plus the detector's eventual
// accuracy — after convergence the first correct coordinator's round
// decides. Decisions spread by rebroadcast, so every correct process
// decides even if it was behind.
package consensus

import (
	"fmt"
	"sort"

	"repro/internal/detector"
	"repro/internal/rt"
	"repro/internal/sim"
)

// Value is a proposed/decided value.
type Value int64

// Instance is one consensus instance over a fixed set of processes.
type Instance struct {
	name  string
	procs []sim.ProcID
	mods  map[sim.ProcID]*module

	// The ports, made once: name+"/est" and so on.
	estPort, propPort, votePort, decidePort rt.Port
}

// New creates a consensus instance named name over procs (majority of which
// must stay correct for termination), consulting oracle for coordinator
// suspicion.
func New(k *sim.Kernel, procs []sim.ProcID, name string, oracle detector.Oracle) *Instance {
	if len(procs) < 2 {
		panic("consensus: need at least 2 processes")
	}
	in := &Instance{name: name, procs: procs, mods: make(map[sim.ProcID]*module),
		estPort: rt.PortOf(name + "/est"), propPort: rt.PortOf(name + "/prop"),
		votePort: rt.PortOf(name + "/vote"), decidePort: rt.PortOf(name + "/decide")}
	for _, p := range procs {
		in.mods[p] = newModule(k, in, p, oracle)
	}
	return in
}

// Propose submits p's initial value. Must be called at most once per
// process, from within p's own steps (or before the run starts).
func (in *Instance) Propose(p sim.ProcID, v Value) {
	in.mods[p].propose(v)
}

// OnDecide registers a callback invoked (once) when p decides.
func (in *Instance) OnDecide(p sim.ProcID, f func(Value)) {
	m := in.mods[p]
	m.onDecide = append(m.onDecide, f)
}

// Decided reports whether p has decided, and the decision.
func (in *Instance) Decided(p sim.ProcID) (Value, bool) {
	m := in.mods[p]
	return m.decision, m.decided
}

// Round returns p's current round (for tests and metrics).
func (in *Instance) Round(p sim.ProcID) int64 { return in.mods[p].round }

type estimateMsg struct {
	Round int64
	Est   Value
	Stamp int64
}

type proposeMsg struct {
	Round int64
	Est   Value
}

type voteMsg struct {
	Round int64
	Ack   bool
}

type decideMsg struct {
	Val Value
}

// phase of a participant within its current round.
type phase int

const (
	phEstimate phase = iota // must send estimate to the coordinator
	phWait                  // waiting for the proposal or suspicion
)

type module struct {
	k    *sim.Kernel
	in   *Instance
	self sim.ProcID
	view detector.View

	proposed bool
	est      Value
	stamp    int64
	round    int64
	ph       phase

	// Coordinator state for rounds this process coordinates.
	estimates   map[int64]map[sim.ProcID]estimateMsg
	votes       map[int64]map[sim.ProcID]bool
	proposedVal map[int64]Value // value actually broadcast per round
	outcomeDone map[int64]bool

	// Buffered proposals by round (may arrive before we reach the round).
	proposals map[int64]Value

	decided  bool
	decision Value
	onDecide []func(Value)
}

func newModule(k *sim.Kernel, in *Instance, p sim.ProcID, oracle detector.Oracle) *module {
	m := &module{
		k: k, in: in, self: p,
		view:        detector.View{Oracle: oracle, Self: p},
		estimates:   make(map[int64]map[sim.ProcID]estimateMsg),
		votes:       make(map[int64]map[sim.ProcID]bool),
		proposedVal: make(map[int64]Value),
		outcomeDone: make(map[int64]bool),
		proposals:   make(map[int64]Value),
	}
	n := in.name
	k.Handle(p, in.estPort, m.onEstimate)
	k.Handle(p, in.propPort, m.onPropose)
	k.Handle(p, in.votePort, m.onVote)
	k.Handle(p, in.decidePort, m.onDecideMsg)

	k.AddAction(p, n+"/send-estimate", m.canSendEstimate, m.sendEstimate)
	k.AddAction(p, n+"/coord-propose", m.canPropose, m.doPropose)
	k.AddAction(p, n+"/handle-proposal", m.canHandleProposal, m.handleProposal)
	k.AddAction(p, n+"/suspect-coord", m.canSuspectCoord, m.nackCoord)
	k.AddAction(p, n+"/coord-outcome", m.canResolve, m.resolve)
	// The detector's convergence does not wake this process by itself;
	// poll so a suspicion can unblock phWait.
	var poll func()
	poll = func() { k.After(p, 15, poll) }
	k.After(p, 15, poll)
	return m
}

func (m *module) propose(v Value) {
	if m.proposed {
		return
	}
	m.proposed = true
	m.est = v
	m.round = 1
	m.ph = phEstimate
	m.k.Emit(sim.Record{P: m.self, Kind: "mark", Peer: -1, Inst: m.in.name, Note: fmt.Sprintf("propose=%d", v)})
	// Ensure the process wakes to evaluate its guards even if Propose was
	// called before the run started.
	m.k.After(m.self, 1, func() {})
}

// coordinator of round r.
func (m *module) coord(r int64) sim.ProcID {
	return m.in.procs[int(r)%len(m.in.procs)]
}

func (m *module) majority() int { return len(m.in.procs)/2 + 1 }

// ---- participant side ----

func (m *module) canSendEstimate() bool {
	return m.proposed && !m.decided && m.ph == phEstimate
}

func (m *module) sendEstimate() {
	m.ph = phWait
	m.k.Send(m.self, m.coord(m.round), m.in.estPort,
		estimateMsg{Round: m.round, Est: m.est, Stamp: m.stamp})
}

func (m *module) canHandleProposal() bool {
	if !m.proposed || m.decided || m.ph != phWait {
		return false
	}
	_, ok := m.proposals[m.round]
	return ok
}

func (m *module) handleProposal() {
	v := m.proposals[m.round]
	m.est = v
	m.stamp = m.round
	m.vote(true)
}

func (m *module) canSuspectCoord() bool {
	if !m.proposed || m.decided || m.ph != phWait {
		return false
	}
	if _, ok := m.proposals[m.round]; ok {
		return false // proposal is here; handle it instead
	}
	c := m.coord(m.round)
	return c != m.self && m.view.Suspected(c)
}

func (m *module) nackCoord() { m.vote(false) }

func (m *module) vote(ack bool) {
	m.k.Send(m.self, m.coord(m.round), m.in.votePort, voteMsg{Round: m.round, Ack: ack})
	// Optimistically move on: the coordinator's outcome (a decision) will
	// reach us via the reliable decide broadcast if the round succeeded.
	m.round++
	m.ph = phEstimate
}

// ---- coordinator side ----

// proposableRounds returns, in ascending order, rounds this process
// coordinates that have a majority of estimates and no proposal yet. Sorted
// iteration keeps runs deterministic (map order is not).
func (m *module) proposableRounds() []int64 {
	var rs []int64
	for r, ests := range m.estimates {
		if _, sent := m.proposedVal[r]; !sent && m.coord(r) == m.self && len(ests) >= m.majority() {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}

func (m *module) canPropose() bool {
	return m.proposed && !m.decided && len(m.proposableRounds()) > 0
}

func (m *module) doPropose() {
	rs := m.proposableRounds()
	if len(rs) == 0 {
		return
	}
	r := rs[0]
	best := estimateMsg{Stamp: -1}
	// Deterministic tie-break: scan senders in id order.
	senders := make([]sim.ProcID, 0, len(m.estimates[r]))
	for q := range m.estimates[r] {
		senders = append(senders, q)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	for _, q := range senders {
		if e := m.estimates[r][q]; e.Stamp > best.Stamp {
			best = e
		}
	}
	// Record the value actually proposed: late estimates must not be able
	// to change what this round can decide.
	m.proposedVal[r] = best.Est
	for _, q := range m.in.procs {
		m.k.Send(m.self, q, m.in.propPort, proposeMsg{Round: r, Est: best.Est})
	}
}

// resolvableRounds returns, in ascending order, coordinated rounds whose
// vote tally has reached a verdict.
func (m *module) resolvableRounds() []int64 {
	var rs []int64
	for r, vs := range m.votes {
		if m.outcomeDone[r] || m.coord(r) != m.self {
			continue
		}
		acks := 0
		for _, a := range vs {
			if a {
				acks++
			}
		}
		if acks >= m.majority() || len(vs) >= m.majority() {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}

func (m *module) canResolve() bool {
	return m.proposed && !m.decided && len(m.resolvableRounds()) > 0
}

func (m *module) resolve() {
	rs := m.resolvableRounds()
	if len(rs) == 0 {
		return
	}
	r := rs[0]
	vs := m.votes[r]
	acks := 0
	for _, a := range vs {
		if a {
			acks++
		}
	}
	val, sent := m.proposedVal[r]
	m.outcomeDone[r] = true
	if sent && acks >= m.majority() {
		// The proposal of round r was adopted by a majority; the locking
		// argument makes deciding it safe.
		m.broadcastDecide(val)
	}
	// Otherwise the round failed; participants have already moved on.
}

func (m *module) broadcastDecide(v Value) {
	for _, q := range m.in.procs {
		if q != m.self {
			m.k.Send(m.self, q, m.in.decidePort, decideMsg{Val: v})
		}
	}
	m.decide(v)
}

func (m *module) decide(v Value) {
	if m.decided {
		return
	}
	m.decided = true
	m.decision = v
	m.k.Emit(sim.Record{P: m.self, Kind: "mark", Peer: -1, Inst: m.in.name, Note: fmt.Sprintf("decide=%d", v)})
	for _, f := range m.onDecide {
		f(v)
	}
}

// ---- handlers ----

func (m *module) onEstimate(msg sim.Message) {
	e := msg.Payload.(estimateMsg)
	if m.estimates[e.Round] == nil {
		m.estimates[e.Round] = make(map[sim.ProcID]estimateMsg)
	}
	m.estimates[e.Round][msg.From] = e
}

func (m *module) onPropose(msg sim.Message) {
	p := msg.Payload.(proposeMsg)
	if _, dup := m.proposals[p.Round]; !dup {
		m.proposals[p.Round] = p.Est
	}
}

func (m *module) onVote(msg sim.Message) {
	v := msg.Payload.(voteMsg)
	if m.votes[v.Round] == nil {
		m.votes[v.Round] = make(map[sim.ProcID]bool)
	}
	m.votes[v.Round][msg.From] = v.Ack
}

func (m *module) onDecideMsg(msg sim.Message) {
	d := msg.Payload.(decideMsg)
	if !m.decided {
		// Relay once so the broadcast is reliable even if the original
		// sender crashed mid-broadcast.
		for _, q := range m.in.procs {
			if q != m.self && q != msg.From {
				m.k.Send(m.self, q, m.in.decidePort, d)
			}
		}
	}
	m.decide(d.Val)
}
