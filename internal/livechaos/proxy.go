// Package livechaos is the simulator's link adversary in front of a
// networked deployment: a fault-injecting TCP proxy driven by the same
// sim.LinkPlan that drives the deterministic chaos campaigns (in process,
// live.Runtime.SetLinks applies a plan itself). The *schedule* of faults —
// partition windows, per-link overrides, drop/dup probabilities — is derived
// purely from the plan and the seed, so replaying a seed replays the same
// adversary even though wall-clock interleaving is not reproducible.
package livechaos

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// ProxyConfig shapes a fault-injecting TCP proxy.
type ProxyConfig struct {
	// Listen is the address to accept client connections on (e.g.
	// "127.0.0.1:0").
	Listen string
	// Upstream is the server address every accepted connection is forwarded
	// to.
	Upstream string
	// Plan is the link adversary, interpreted over the two-node link the
	// proxy sits on: process 0 is the client side, process 1 the server
	// side, so client->server traffic runs link 0->1 and replies run 1->0.
	// A LossyWindow with Side [0] (or [1]) partitions the two for its era.
	// ReorderMax acts as head-of-line delay: TCP preserves order, so the
	// adversary can stall a direction but not reorder within it.
	Plan sim.LinkPlan
	// Seed roots the per-connection, per-direction random streams
	// (default 1).
	Seed int64
	// Tick is the wall-clock duration of one plan tick (default 1ms).
	Tick time.Duration
	// ResetProb is a per-forwarded-line probability of killing the
	// connection pair mid-stream — the transport-level fault (RST) that the
	// plan's message-level model cannot express. Clients are expected to
	// reconnect and replay idempotently.
	ResetProb float64
	// MaxLine bounds one protocol line (default 1MB).
	MaxLine int
}

// Proxy is a line-aware fault-injecting TCP relay for JSON-lines protocols
// (lockproto): it drops, duplicates and delays whole lines, never corrupting
// a frame, and can reset connections. It is the out-of-process counterpart
// of live.Runtime.SetLinks, usable in front of an unmodified dineserve.
type Proxy struct {
	cfg   ProxyConfig
	ln    net.Listener
	start time.Time

	closed  atomic.Bool
	wg      sync.WaitGroup
	connSeq atomic.Int64

	dropped atomic.Int64
	duped   atomic.Int64
	resets  atomic.Int64
}

// NewProxy validates the plan, binds the listener, and starts accepting.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	if err := cfg.Plan.Validate(2); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.MaxLine <= 0 {
		cfg.MaxLine = 1 << 20
	}
	if cfg.ResetProb < 0 || cfg.ResetProb >= 1 {
		return nil, fmt.Errorf("livechaos: proxy reset probability %v outside [0, 1)", cfg.ResetProb)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{cfg: cfg, ln: ln, start: time.Now()}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's bound listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats reports (lines dropped, lines duplicated, connections reset).
func (p *Proxy) Stats() (dropped, duped, resets int64) {
	return p.dropped.Load(), p.duped.Load(), p.resets.Load()
}

// Close stops accepting and waits for the relay goroutines to drain.
func (p *Proxy) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		id := p.connSeq.Add(1)
		p.wg.Add(1)
		go p.relay(conn, id)
	}
}

// relay connects one accepted client to the upstream and pumps both
// directions through the adversary until either side closes or a reset
// fires.
func (p *Proxy) relay(client net.Conn, id int64) {
	defer p.wg.Done()
	upstream, err := net.Dial("tcp", p.cfg.Upstream)
	if err != nil {
		client.Close()
		return
	}
	// kill closes both legs; the losing pump's read fails and it exits.
	var once sync.Once
	kill := func() {
		once.Do(func() {
			client.Close()
			upstream.Close()
		})
	}
	var pumps sync.WaitGroup
	pumps.Add(2)
	go p.pump(&pumps, client, upstream, 0, 1, id, kill)
	go p.pump(&pumps, upstream, client, 1, 0, id, kill)
	pumps.Wait()
	kill()
}

// pump relays lines src -> dst as link from->to of the plan.
func (p *Proxy) pump(wg *sync.WaitGroup, src, dst net.Conn, from, to sim.ProcID, id int64, kill func()) {
	defer wg.Done()
	// Each (connection, direction) draws from its own stream so the fault
	// sequence per direction depends only on the seed, the connection index
	// and that direction's line count.
	rng := rand.New(rand.NewSource(p.cfg.Seed + id*65_537 + int64(from)*1_000_003 + int64(to)*7_919))
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), p.cfg.MaxLine)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		line = append(line, '\n')
		now := sim.Time(time.Since(p.start) / p.cfg.Tick)
		if p.cfg.ResetProb > 0 && rng.Float64() < p.cfg.ResetProb {
			p.resets.Add(1)
			kill()
			return
		}
		if p.cfg.Plan.ReorderMax > 0 {
			if extra := rng.Int63n(int64(p.cfg.Plan.ReorderMax) + 1); extra > 0 {
				time.Sleep(time.Duration(extra) * p.cfg.Tick)
			}
		}
		// TCP keeps order, so a duplicate follows its original at once
		// rather than dupAfter ticks later.
		drop, dupAfter := p.cfg.Plan.Arrive(rng, from, to, now)
		if drop {
			p.dropped.Add(1)
			continue
		}
		copies := 1
		if dupAfter > 0 {
			p.duped.Add(1)
			copies = 2
		}
		for i := 0; i < copies; i++ {
			if _, err := dst.Write(line); err != nil {
				kill()
				return
			}
		}
	}
	kill()
}
