package detector

import (
	"repro/internal/rt"
)

// PingbackConfig tunes the query-based ◇P implementation.
type PingbackConfig struct {
	Period  rt.Time // query period (default 25)
	Timeout rt.Time // initial round-trip timeout (default 60)
	Bump    rt.Time // timeout increase after each false suspicion (default 40)
}

func (c *PingbackConfig) defaults() {
	if c.Period <= 0 {
		c.Period = 25
	}
	if c.Timeout <= 0 {
		c.Timeout = 60
	}
	if c.Bump <= 0 {
		c.Bump = 40
	}
}

// Pingback is a pull-style implementation of ◇P: each monitor periodically
// sends PING to every peer and suspects a peer whose PONG for the current
// query is overdue; a late PONG rescinds the suspicion and permanently
// enlarges that peer's timeout. Compared to the push-style Heartbeat it
// costs twice the messages per probe but measures actual round-trips, so
// its timeouts adapt to the pair's real latency rather than to one-way
// delivery gaps. Under a GST delay policy it satisfies both ◇P axioms; the
// detector package tests check both implementations against the same
// checkers, and E13 compares their mistake/latency trade-offs.
type Pingback struct {
	name string
	k    rt.Runtime
	mods []*pbModule
}

type pbModule struct {
	self     rt.ProcID
	seq      map[rt.ProcID]int64   // current query number per peer
	sentAt   map[rt.ProcID]rt.Time // send time of the current query
	answered map[rt.ProcID]bool    // current query answered?
	timeout  map[rt.ProcID]rt.Time
	suspects map[rt.ProcID]bool
}

type pingMsg struct{ Seq int64 }
type pongMsg struct{ Seq int64 }

// NewPingback installs query-based ◇P modules at every process of k.
func NewPingback(k rt.Runtime, name string, cfg PingbackConfig) *Pingback {
	cfg.defaults()
	pb := &Pingback{name: name, k: k, mods: make([]*pbModule, k.N())}
	for i := 0; i < k.N(); i++ {
		p := rt.ProcID(i)
		m := &pbModule{
			self:     p,
			seq:      make(map[rt.ProcID]int64),
			sentAt:   make(map[rt.ProcID]rt.Time),
			answered: make(map[rt.ProcID]bool),
			timeout:  make(map[rt.ProcID]rt.Time),
			suspects: make(map[rt.ProcID]bool),
		}
		pb.mods[i] = m
		for j := 0; j < k.N(); j++ {
			if j != i {
				m.timeout[rt.ProcID(j)] = cfg.Timeout
				m.answered[rt.ProcID(j)] = true // nothing outstanding yet
			}
		}
		ping := rt.PortOf(name + "/ping")
		pong := rt.PortOf(name + "/pong")
		k.Handle(p, ping, func(msg rt.Message) {
			// Responder side: echo immediately (pure function of the query).
			k.Send(p, msg.From, pong, pongMsg{Seq: msg.Payload.(pingMsg).Seq})
		})
		k.Handle(p, pong, func(msg rt.Message) {
			q := msg.From
			if msg.Payload.(pongMsg).Seq != m.seq[q] {
				return // answer to an old query
			}
			m.answered[q] = true
			if m.suspects[q] {
				m.suspects[q] = false
				m.timeout[q] += cfg.Bump
				emitChange(k, name, p, q, false)
			}
		})
		var probe func()
		probe = func() {
			now := k.Now()
			for j := 0; j < k.N(); j++ {
				q := rt.ProcID(j)
				if q == p {
					continue
				}
				// Check the outstanding query first.
				if !m.answered[q] && !m.suspects[q] && now > m.sentAt[q]+m.timeout[q] {
					m.suspects[q] = true
					emitChange(k, name, p, q, true)
				}
				// Issue a fresh query when the previous one resolved or is
				// already counted as a suspicion (keep probing: a late pong
				// must be able to rescind).
				if m.answered[q] || m.suspects[q] {
					m.seq[q]++
					m.sentAt[q] = now
					m.answered[q] = false
					k.Send(p, q, ping, pingMsg{Seq: m.seq[q]})
				}
			}
			k.After(p, cfg.Period, probe)
		}
		k.After(p, 1+rt.Time(i)%cfg.Period, probe)
	}
	return pb
}

// Name implements Oracle.
func (pb *Pingback) Name() string { return pb.name }

// Suspected implements Oracle.
func (pb *Pingback) Suspected(p, q rt.ProcID) bool { return pb.mods[p].suspects[q] }

// Timeout exposes p's adaptive round-trip timeout for q.
func (pb *Pingback) Timeout(p, q rt.ProcID) rt.Time { return pb.mods[p].timeout[q] }
