// Package livechaos ports the simulator's link adversary to wall-clock
// execution: a fault-injecting Bus for in-process live runtimes and a TCP
// proxy for networked deployments, both driven by the same sim.LinkPlan that
// drives the deterministic chaos campaigns. The *schedule* of faults —
// partition windows, per-link overrides, drop/dup probabilities — is derived
// purely from the plan and the seed, so replaying a seed replays the same
// adversary even though wall-clock interleaving is not reproducible.
package livechaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
)

// BusConfig shapes a ChaosBus.
type BusConfig struct {
	// N is the number of processes the plan is validated against.
	N int
	// Plan is the link adversary, with the exact semantics of the
	// simulator's LinkPlan: baseline drop/dup, per-link overrides, bounded
	// reorder, and timed lossy windows (partitions). Window times are in
	// ticks from the bus clock's zero point (see ResetClock).
	Plan sim.LinkPlan
	// Seed roots the per-direction random streams (default 1). Every
	// directed link draws from its own stream, so one link's traffic volume
	// cannot perturb another link's fault sequence.
	Seed int64
	// Tick is the wall-clock duration of one plan tick (default 1ms). Use
	// the same tick as the live runtime so window times line up with
	// protocol time.
	Tick time.Duration
}

// ChaosBus wraps a live.Bus and filters every Send through a sim.LinkPlan:
// messages are dropped, duplicated, or delayed (bounded reorder) exactly as
// the simulator's linkArrive would, but in real time. It counts into the
// bound runtime's table: "bus.dropped", "bus.duped", "bus.delayed", and
// "bus.partitioned" — the share of the drops eaten while their link sat
// inside an active lossy window, which a convergence dashboard wants
// separated from steady-state noise.
type ChaosBus struct {
	inner live.Bus
	plan  sim.LinkPlan
	seed  int64
	tick  time.Duration

	mu      sync.Mutex
	start   time.Time
	streams map[[2]rt.ProcID]*rand.Rand
	closed  bool

	dropped, duped, delayed, partitioned *metrics.Counter
}

// NewChaosBus validates cfg.Plan and wraps inner. The plan clock starts
// ticking immediately; call ResetClock after the runtime starts to align
// window times with runtime time.
func NewChaosBus(inner live.Bus, cfg BusConfig) (*ChaosBus, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("livechaos: BusConfig.N must be positive")
	}
	if err := cfg.Plan.Validate(cfg.N); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	return &ChaosBus{
		inner:   inner,
		plan:    cfg.Plan,
		seed:    cfg.Seed,
		tick:    cfg.Tick,
		start:   time.Now(),
		streams: make(map[[2]rt.ProcID]*rand.Rand),
	}, nil
}

// ResetClock re-zeroes the plan clock: window [Start, End) eras are measured
// in ticks from the most recent ResetClock (or construction).
func (b *ChaosBus) ResetClock() {
	b.mu.Lock()
	b.start = time.Now()
	b.mu.Unlock()
}

// Bind implements live.Bus.
func (b *ChaosBus) Bind(deliver func(rt.Message), counter func(name string) *metrics.Counter) {
	b.mu.Lock()
	b.dropped, b.duped = counter("bus.dropped"), counter("bus.duped")
	b.delayed, b.partitioned = counter("bus.delayed"), counter("bus.partitioned")
	b.mu.Unlock()
	b.inner.Bind(deliver, counter)
}

// now returns the plan clock in ticks. Caller holds b.mu.
func (b *ChaosBus) now() sim.Time { return sim.Time(time.Since(b.start) / b.tick) }

// stream returns the seeded random stream of one directed link. Caller
// holds b.mu.
func (b *ChaosBus) stream(from, to rt.ProcID) *rand.Rand {
	key := [2]rt.ProcID{from, to}
	rng, ok := b.streams[key]
	if !ok {
		rng = rand.New(rand.NewSource(b.seed + int64(from)*1_000_003 + int64(to)*7_919))
		b.streams[key] = rng
	}
	return rng
}

// Send implements live.Bus: the message runs the plan's gauntlet in the
// simulator's order — reorder delay drawn at send, drop decided at arrival,
// duplication only for messages that survived the drop. The fixed draw order
// makes a direction's fault sequence a pure function of the seed and that
// direction's message count.
func (b *ChaosBus) Send(m rt.Message) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	now := b.now()
	rng := b.stream(m.From, m.To)
	var extra time.Duration
	if b.plan.ReorderMax > 0 {
		extra = time.Duration(rng.Int63n(int64(b.plan.ReorderMax)+1)) * b.tick
		if extra > 0 {
			b.delayed.Inc()
		}
	}
	if p := b.plan.DropProb(m.From, m.To, now); p > 0 && rng.Float64() < p {
		b.dropped.Inc()
		if b.plan.InWindow(m.From, m.To, now) {
			b.partitioned.Inc()
		}
		b.mu.Unlock()
		return
	}
	dup := false
	var dupExtra time.Duration
	if p := b.plan.DupProb(m.From, m.To); p > 0 && rng.Float64() < p {
		dup = true
		b.duped.Inc()
		// Mirror the simulator: a duplicate is a second, independent delivery
		// of the same wire message a little later, never duplicated again.
		dupExtra = time.Duration(1+rng.Int63n(8)) * b.tick
	}
	b.mu.Unlock()
	b.forward(m, extra)
	if dup {
		b.forward(m, extra+dupExtra)
	}
}

// forward ships m on the inner bus after the adversary's extra delay.
func (b *ChaosBus) forward(m rt.Message, extra time.Duration) {
	if extra <= 0 {
		b.inner.Send(m)
		return
	}
	time.AfterFunc(extra, func() {
		b.mu.Lock()
		closed := b.closed
		b.mu.Unlock()
		if !closed {
			b.inner.Send(m)
		}
	})
}

// Close implements live.Bus.
func (b *ChaosBus) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return b.inner.Close()
}
