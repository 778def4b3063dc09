package detector

import (
	"repro/internal/rt"
)

// HeartbeatConfig tunes the heartbeat implementation of ◇P.
type HeartbeatConfig struct {
	Interval rt.Time // heartbeat broadcast period (default 20)
	Check    rt.Time // suspicion check period (default 10)
	Timeout  rt.Time // initial per-peer timeout (default 60)
	Bump     rt.Time // timeout increase after each false suspicion (default 40)
}

func (c *HeartbeatConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = 20
	}
	if c.Check <= 0 {
		c.Check = 10
	}
	if c.Timeout <= 0 {
		c.Timeout = 60
	}
	if c.Bump <= 0 {
		c.Bump = 40
	}
}

// Heartbeat is a realistic implementation of the eventually perfect failure
// detector ◇P by adaptive timeouts: every process periodically broadcasts
// heartbeats; a monitor suspects a peer whose heartbeat is overdue and, upon
// discovering the suspicion was premature, trusts again and permanently
// enlarges that peer's timeout. Under a partially synchronous delay policy
// (rt.GSTDelay) every run converges: crashed processes are eventually and
// permanently suspected (strong completeness) and correct processes are
// eventually never suspected (eventual strong accuracy).
type Heartbeat struct {
	name string
	k    rt.Runtime
	mods []*hbModule
}

type hbModule struct {
	k    rt.Runtime
	name string
	cfg  HeartbeatConfig
	port rt.Port
	self rt.ProcID
	n    int

	// Per-peer state, indexed by ProcID (the entry at self is unused).
	deadline []rt.Time
	timeout  []rt.Time
	suspects []bool

	// The two timer bodies, bound once: a method value evaluated at each
	// After call would allocate a closure per timer.
	beatFn, checkFn func()
}

// NewHeartbeat installs heartbeat ◇P modules at every process of k.
func NewHeartbeat(k rt.Runtime, name string, cfg HeartbeatConfig) *Heartbeat {
	cfg.defaults()
	h := &Heartbeat{name: name, k: k, mods: make([]*hbModule, k.N())}
	for i := 0; i < k.N(); i++ {
		p := rt.ProcID(i)
		m := &hbModule{
			k:    k,
			name: name,
			cfg:  cfg,
			port: rt.PortOf(name + "/hb"),
			self: p,
			n:    k.N(),
		}
		m.beatFn, m.checkFn = m.beat, m.check
		h.mods[i] = m
		m.init()
		k.Handle(p, m.port, m.onBeat)
		m.arm(1 + rt.Time(i)%cfg.Interval)
	}
	return h
}

// init (re)creates the module's per-peer state: everyone trusted, deadlines
// one full timeout from now.
func (m *hbModule) init() {
	m.deadline = make([]rt.Time, m.n)
	m.timeout = make([]rt.Time, m.n)
	m.suspects = make([]bool, m.n)
	for j := range m.timeout {
		m.timeout[j] = m.cfg.Timeout
		m.deadline[j] = m.k.Now() + m.cfg.Timeout
	}
}

// arm starts the periodic broadcast and suspicion-check timer chains.
func (m *hbModule) arm(firstBeat rt.Time) {
	m.k.After(m.self, firstBeat, m.beatFn)
	m.k.After(m.self, m.cfg.Check, m.checkFn)
}

func (m *hbModule) onBeat(msg rt.Message) {
	k := m.k
	m.deadline[msg.From] = k.Now() + m.timeout[msg.From]
	if m.suspects[msg.From] {
		// Premature suspicion: trust again and learn.
		m.suspects[msg.From] = false
		m.timeout[msg.From] += m.cfg.Bump
		m.deadline[msg.From] = k.Now() + m.timeout[msg.From]
		emitChange(k, m.name, m.self, msg.From, false)
	}
}

// beat broadcasts one heartbeat round and reschedules itself.
func (m *hbModule) beat() {
	for j := 0; j < m.n; j++ {
		if rt.ProcID(j) != m.self {
			m.k.Send(m.self, rt.ProcID(j), m.port, nil)
		}
	}
	m.k.After(m.self, m.cfg.Interval, m.beatFn)
}

// check suspects every peer whose heartbeat is overdue and reschedules
// itself.
func (m *hbModule) check() {
	for j := 0; j < m.n; j++ {
		q := rt.ProcID(j)
		if q == m.self || m.suspects[q] {
			continue
		}
		if m.k.Now() > m.deadline[q] {
			m.suspects[q] = true
			emitChange(m.k, m.name, m.self, q, true)
		}
	}
	m.k.After(m.self, m.cfg.Check, m.checkFn)
}

// Reset reinstalls p's monitor state after a crash-restart: every peer is
// trusted again (emitting trust records, in ProcID order, for peers the dead
// incarnation suspected, so the suspicion history in the trace stays
// well-bracketed), deadlines restart one full timeout from now, learned
// timeouts are forgotten, and the broadcast/check timer chains — whose
// previous incarnation died with the crash — are re-armed. Call it from the
// reboot hook of live.Runtime.Restart.
func (h *Heartbeat) Reset(p rt.ProcID) {
	m := h.mods[p]
	for q, s := range m.suspects {
		if s {
			emitChange(h.k, h.name, p, rt.ProcID(q), false)
		}
	}
	m.init()
	m.arm(1 + rt.Time(p)%m.cfg.Interval)
}

// Name implements Oracle.
func (h *Heartbeat) Name() string { return h.name }

// Suspected implements Oracle.
func (h *Heartbeat) Suspected(p, q rt.ProcID) bool { return h.mods[p].suspects[q] }

// Timeout exposes p's current adaptive timeout for q (for tests and
// metrics).
func (h *Heartbeat) Timeout(p, q rt.ProcID) rt.Time { return h.mods[p].timeout[q] }

// Trusting is a model-true implementation of the trusting failure detector
// T: a monitor suspects every peer until the first message arrives from it
// ("trust is earned"), then trusts it until it actually crashes (consulting
// the fault schedule — see the package comment for why this is legitimate).
// It satisfies exactly T's axioms: strong completeness, eventual permanent
// trust of correct processes, and trust withdrawal only upon a real crash.
type Trusting struct {
	name string
	k    rt.Runtime
	mods []*trustModule
}

type trustModule struct {
	heard    map[rt.ProcID]bool
	suspects map[rt.ProcID]bool
}

// NewTrusting installs model-true T modules at every process. Interval is
// the hello/check period (default 20).
func NewTrusting(k rt.Runtime, name string, interval rt.Time) *Trusting {
	if interval <= 0 {
		interval = 20
	}
	t := &Trusting{name: name, k: k, mods: make([]*trustModule, k.N())}
	for i := 0; i < k.N(); i++ {
		p := rt.ProcID(i)
		m := &trustModule{heard: make(map[rt.ProcID]bool), suspects: make(map[rt.ProcID]bool)}
		t.mods[i] = m
		for j := 0; j < k.N(); j++ {
			if j != i {
				m.suspects[rt.ProcID(j)] = true // initial distrust
			}
		}
		port := rt.PortOf(name + "/hello")
		k.Handle(p, port, func(msg rt.Message) {
			m.heard[msg.From] = true
			if m.suspects[msg.From] && !k.Crashed(msg.From) {
				m.suspects[msg.From] = false
				emitChange(k, name, p, msg.From, false)
			}
		})
		var tick func()
		tick = func() {
			for j := 0; j < k.N(); j++ {
				q := rt.ProcID(j)
				if q == p {
					continue
				}
				k.Send(p, q, port, nil)
				if !m.suspects[q] && k.Crashed(q) {
					m.suspects[q] = true // trust withdrawn: q has really crashed
					emitChange(k, name, p, q, true)
				}
			}
			k.After(p, interval, tick)
		}
		k.After(p, 1+rt.Time(i)%interval, tick)
	}
	return t
}

// Name implements Oracle.
func (t *Trusting) Name() string { return t.name }

// Suspected implements Oracle.
func (t *Trusting) Suspected(p, q rt.ProcID) bool { return t.mods[p].suspects[q] }
