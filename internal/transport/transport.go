// Package transport restores the paper's reliable-channel axioms on top of
// fair-lossy links (a sim.LinkPlan, on either runtime): exactly-once
// delivery of every protocol message to every correct destination, with no
// protocol module changing a line.
//
// Mechanism — the classic simulation of reliable channels over fair-lossy
// links (cf. Aspnes's lecture notes; the retransmit-until-ack "stubborn
// link" plus sequence-number deduplication): Enable wraps a runtime in a
// *Reliable, itself an rt.Runtime, and protocol modules are wired on the
// wrapper. Its Send wraps every message into a sequenced envelope on the
// transport's own wire port of the runtime underneath; its Handle keeps the
// protocol's handlers in the transport's own table. Per ordered process pair
// the sender keeps the unacknowledged window and retransmits it with
// exponential backoff (capped), the receiver suppresses duplicates with a
// cumulative watermark plus a sparse out-of-order set, acks cumulatively,
// and hands each fresh payload to the handler registered for its original
// port, inside the envelope's own delivery step. Because fair-lossy links
// deliver a message sent infinitely often infinitely often, and
// retransmission stops only on acknowledgement, every wrapped message
// reaches a correct destination exactly once — the channel contract
// internal/detector, internal/core and the dining boxes were written
// against. The transport is quiescent: once everything outstanding is
// acked, no further wire traffic is generated for it.
//
// All timing comes from the runtime's timers and all randomness from its
// seeded source (the transport itself uses none), so runs over the
// transport are exactly as deterministic and replayable as runs without it.
package transport

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/rt"
)

// Config tunes retransmission. The zero value gives usable defaults.
type Config struct {
	// RTO is the initial retransmission timeout for a fresh window (default
	// 40 ticks — a little above one round trip under the default delay
	// policies, so acks usually win the race).
	RTO rt.Time
	// RTOMax caps the exponential backoff (default 640). The cap keeps a
	// retransmitting sender probing a silent peer at a bounded, non-zero
	// rate: messages to a crashed process are retransmitted forever (the
	// channel axiom only promises delivery to correct processes — nothing
	// here may guess at crashes), but never faster than once per RTOMax.
	RTOMax rt.Time
	// Window bounds how many unacked messages one retransmission burst
	// re-sends, oldest first (default 64). It bounds the burst a long-dead
	// destination can provoke; liveness is unaffected because acks always
	// advance the window from the oldest end.
	Window int
}

func (c *Config) defaults() {
	if c.RTO <= 0 {
		c.RTO = 40
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 640
	}
	if c.Window <= 0 {
		c.Window = 64
	}
}

// dataMsg is the wire envelope of one protocol message.
type dataMsg struct {
	Seq     int64
	Port    rt.Port // the protocol port the payload is addressed to
	Payload any
}

// ackMsg acknowledges receipt: everything up to Cum, plus Seq itself (which
// may be ahead of the watermark).
type ackMsg struct {
	Cum int64
	Seq int64
}

// flight is one unacknowledged envelope with its last transmission time.
type flight struct {
	env dataMsg
	at  rt.Time
}

// sender is the outbound state for one ordered pair (from -> to).
type sender struct {
	next    int64             // last assigned sequence number
	unacked map[int64]*flight // in flight, keyed by sequence number
	rto     rt.Time           // current backoff
	armed   bool              // retransmission timer pending
}

// receiver is the inbound state for one ordered pair (from -> to).
type receiver struct {
	cum   int64          // every seq <= cum has been delivered
	above map[int64]bool // delivered seqs beyond the watermark
}

// Reliable is the transport attached to one runtime, and the rt.Runtime the
// protocol modules above it are wired on: it embeds the runtime underneath
// and overrides Send and Handle; everything else is the runtime's own.
//
// Concurrency: sends, retransmission timers and acks for a pair (p → q) all
// execute as steps of p, and data receipt as steps of q. On the live runtime
// a step runs on whichever goroutine holds its process's step lock, but that
// lock serializes the process's steps, so each sender/receiver struct is
// touched by one step at a time and the per-pair state needs no locking on
// either runtime. Only the two top-level maps are shared across processes;
// mu guards them. The port numbering and the handler tables are written
// while wiring, before the runtime starts, and only read after.
type Reliable struct {
	rt.Runtime // the unreliable underlay the envelopes travel on
	name       string
	data, ack  rt.Port // the wire ports on the underlay
	cfg        Config
	ports      rt.Ports       // the protocol ports handled through the transport
	handlers   [][]rt.Handler // by process, then by index in ports; nil = none
	mu         sync.Mutex
	out        map[[2]rt.ProcID]*sender
	in         map[[2]rt.ProcID]*receiver

	sent, retransmit, delivered, dup, acks metrics.Counter
}

// Enable attaches a reliable transport named name to k: it registers the
// wire ports name+"/data" and name+"/ack" at every process of k and returns
// the runtime protocol modules must be wired on. Every Send made through the
// returned runtime travels through the transport; k's own Send remains the
// unreliable underlay. Counters (read with Reliable.Counter):
// "transport.sent" (protocol messages accepted), "transport.retransmit"
// (wire re-sends), "transport.delivered" (exactly-once handoffs),
// "transport.dup" (duplicate envelopes suppressed), "transport.acks" (acks
// sent).
func Enable(k rt.Runtime, name string, cfg Config) *Reliable {
	cfg.defaults()
	t := &Reliable{
		Runtime: k, name: name, cfg: cfg,
		data:     rt.PortOf(name + "/data"),
		ack:      rt.PortOf(name + "/ack"),
		handlers: make([][]rt.Handler, k.N()),
		out:      make(map[[2]rt.ProcID]*sender),
		in:       make(map[[2]rt.ProcID]*receiver),
	}
	for i := 0; i < k.N(); i++ {
		p := rt.ProcID(i)
		k.Handle(p, t.data, func(m rt.Message) { t.onData(p, m) })
		k.Handle(p, t.ack, func(m rt.Message) { t.onAck(p, m) })
	}
	return t
}

// Name returns the transport's port namespace.
func (t *Reliable) Name() string { return t.name }

// Counter returns one of the transport's counts by name; any other name
// reads 0.
func (t *Reliable) Counter(name string) int64 {
	return map[string]*metrics.Counter{
		"transport.sent":       &t.sent,
		"transport.retransmit": &t.retransmit,
		"transport.delivered":  &t.delivered,
		"transport.dup":        &t.dup,
		"transport.acks":       &t.acks,
	}[name].Value()
}

// Handle implements rt.Runtime: h receives the messages sent to port at p
// through the transport. Registering twice for the same port is a
// programming error.
func (t *Reliable) Handle(p rt.ProcID, port rt.Port, h rt.Handler) {
	i := t.ports.Add(port)
	if i >= len(t.handlers[p]) {
		t.handlers[p] = append(t.handlers[p], make([]rt.Handler, i+1-len(t.handlers[p]))...)
	}
	if t.handlers[p][i] != nil {
		panic(fmt.Sprintf("transport: duplicate handler for port %q at process %d", port, p))
	}
	t.handlers[p][i] = h
}

// Send implements rt.Runtime: accept one protocol message, assign it a
// sequence number, ship the first copy, and arm retransmission.
func (t *Reliable) Send(from, to rt.ProcID, port rt.Port, payload any) {
	key := [2]rt.ProcID{from, to}
	s := t.sender(key)
	s.next++
	env := dataMsg{Seq: s.next, Port: port, Payload: payload}
	s.unacked[env.Seq] = &flight{env: env, at: t.Now()}
	t.sent.Inc()
	t.Runtime.Send(from, to, t.data, env)
	t.arm(key, s)
}

// arm schedules the retransmission check for this pair if none is pending.
// The timer lives at the sending process, so it dies with it.
func (t *Reliable) arm(key [2]rt.ProcID, s *sender) {
	if s.armed {
		return
	}
	s.armed = true
	t.After(key[0], s.rto, func() { t.fire(key, s) })
}

// fire is the retransmission timeout: re-send the oldest window of unacked
// envelopes that have gone a full RTO without an ack, back off exponentially
// up to the cap, and re-arm while anything is outstanding. An empty window
// disarms and resets the backoff — the quiescence point.
func (t *Reliable) fire(key [2]rt.ProcID, s *sender) {
	s.armed = false
	if len(s.unacked) == 0 {
		s.rto = t.cfg.RTO
		return
	}
	// Deterministic order: map iteration order must never leak into the
	// event schedule. Only envelopes whose last transmission is at least one
	// RTO old are eligible — a message sent the very tick the timer fires
	// has had no chance to be acked yet.
	now := t.Now()
	seqs := make([]int64, 0, len(s.unacked))
	for seq, f := range s.unacked {
		if now-f.at >= s.rto {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if len(seqs) > t.cfg.Window {
		seqs = seqs[:t.cfg.Window]
	}
	for _, seq := range seqs {
		f := s.unacked[seq]
		f.at = now
		t.retransmit.Inc()
		t.Runtime.Send(key[0], key[1], t.data, f.env)
	}
	if len(seqs) > 0 {
		if s.rto *= 2; s.rto > t.cfg.RTOMax {
			s.rto = t.cfg.RTOMax
		}
	}
	t.arm(key, s)
}

// onData handles one wire envelope at the destination: ack it, suppress it
// if already seen, otherwise advance the watermark and hand the payload to
// the protocol handler registered for its original port, in this same step.
func (t *Reliable) onData(p rt.ProcID, m rt.Message) {
	env := m.Payload.(dataMsg)
	key := [2]rt.ProcID{m.From, p}
	r := t.receiver(key)
	fresh := env.Seq > r.cum && !r.above[env.Seq]
	if fresh {
		r.above[env.Seq] = true
		for r.above[r.cum+1] {
			r.cum++
			delete(r.above, r.cum)
		}
	} else {
		t.dup.Inc()
	}
	// Always ack, even duplicates: the first ack may have been lost.
	t.acks.Inc()
	t.Runtime.Send(p, m.From, t.ack, ackMsg{Cum: r.cum, Seq: env.Seq})
	if !fresh {
		return
	}
	i, ok := t.ports.Lookup(env.Port)
	if !ok || i >= len(t.handlers[p]) || t.handlers[p][i] == nil {
		panic(fmt.Sprintf("transport: no handler for port %q at process %d", env.Port, p))
	}
	t.delivered.Inc()
	t.handlers[p][i](rt.Message{From: m.From, To: p, Port: t.ports.Port(i), Payload: env.Payload})
}

// onAck clears acknowledged envelopes from the sender window. Progress
// resets the backoff; a drained window goes quiescent at the next fire.
func (t *Reliable) onAck(p rt.ProcID, m rt.Message) {
	a := m.Payload.(ackMsg)
	t.mu.Lock()
	s := t.out[[2]rt.ProcID{p, m.From}]
	t.mu.Unlock()
	if s == nil {
		return
	}
	before := len(s.unacked)
	for seq := range s.unacked {
		if seq <= a.Cum || seq == a.Seq {
			delete(s.unacked, seq)
		}
	}
	if len(s.unacked) < before {
		s.rto = t.cfg.RTO
	}
}

// Reset reinstalls p's outbound transport state after a crash-restart. Call
// it from the reboot hook of a live-runtime Restart, before any protocol
// module's reset (their resync messages must go out through a working
// sender), as a step of p.
//
// Two things need repair. The dead incarnation's unacked windows are
// discarded: those messages are volatile state that died with the process,
// and replaying them could contradict the state its protocol modules rebuild
// on restart (a pre-crash fork transfer re-sent after the forks resync has
// minted a replacement would put two forks on one edge). And the armed flags
// are cleared: the crash killed the pending retransmission timers (timers of
// a dead incarnation never fire into the next one), so a stale armed=true
// would suppress re-arming forever — every first copy lost after the restart
// would then be lost for good. Sequence counters are deliberately kept, as
// the receiver watermarks at the peers survive the crash; restarting them at
// zero would make every new envelope look like a duplicate.
func (t *Reliable) Reset(p rt.ProcID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, s := range t.out {
		if key[0] != p {
			continue
		}
		s.unacked = make(map[int64]*flight)
		s.armed = false
		s.rto = t.cfg.RTO
	}
}

// Outstanding reports the number of unacknowledged envelopes from p to q —
// 0 for a quiescent pair (tests and metrics).
func (t *Reliable) Outstanding(p, q rt.ProcID) int {
	t.mu.Lock()
	s := t.out[[2]rt.ProcID{p, q}]
	t.mu.Unlock()
	if s != nil {
		return len(s.unacked)
	}
	return 0
}

// sender returns (creating if needed) the outbound state for key.
func (t *Reliable) sender(key [2]rt.ProcID) *sender {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.out[key]
	if s == nil {
		s = &sender{unacked: make(map[int64]*flight), rto: t.cfg.RTO}
		t.out[key] = s
	}
	return s
}

// receiver returns (creating if needed) the inbound state for key.
func (t *Reliable) receiver(key [2]rt.ProcID) *receiver {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.in[key]
	if r == nil {
		r = &receiver{above: make(map[int64]bool)}
		t.in[key] = r
	}
	return r
}
