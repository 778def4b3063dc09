package sim

import "math/rand"

// DelayPolicy decides the in-transit delay of each message. Returning a
// value < 1 is treated as 1: delivery is always strictly in the future, so a
// process never receives a message in the same step that sent it.
//
// A policy models the (a)synchrony of the underlying system. The kernel
// guarantees reliable delivery regardless of policy; the policy only shapes
// timing, which is what the paper's "temporal uncertainty" is about.
type DelayPolicy interface {
	Delay(rng *rand.Rand, from, to ProcID, now Time) Time
}

// FixedDelay delivers every message after exactly D ticks. It models a
// synchronous network and is useful for focused unit tests.
type FixedDelay struct{ D Time }

// Delay implements DelayPolicy.
func (f FixedDelay) Delay(_ *rand.Rand, _, _ ProcID, _ Time) Time { return max(1, f.D) }

// UniformDelay delivers after a delay drawn uniformly from [Min, Max].
type UniformDelay struct{ Min, Max Time }

// Delay implements DelayPolicy.
func (u UniformDelay) Delay(rng *rand.Rand, _, _ ProcID, _ Time) Time {
	lo, hi := max(1, u.Min), max(1, u.Max)
	if hi <= lo {
		return lo
	}
	return lo + Time(rng.Int63n(int64(hi-lo+1)))
}

// GSTDelay models partial synchrony with an unknown Global Stabilization
// Time: before GST message delays are arbitrary up to PreMax (heavy-tailed,
// adversarially slow), from GST on they are bounded by PostMax. This is the
// classic model in which the eventually perfect failure detector is
// implementable but perpetual-accuracy oracles are not.
type GSTDelay struct {
	GST     Time // stabilization time; 0 means synchronous from the start
	PreMax  Time // worst-case delay before GST
	PostMax Time // delay bound after GST
}

// Delay implements DelayPolicy.
func (g GSTDelay) Delay(rng *rand.Rand, _, _ ProcID, now Time) Time {
	if now >= g.GST {
		return uniform(rng, 1, g.PostMax)
	}
	// Pre-GST: mostly moderate delays with occasional adversarial spikes, so
	// timeout-based detectors make real mistakes before converging.
	if rng.Intn(4) == 0 {
		return uniform(rng, g.PreMax/2+1, g.PreMax)
	}
	return uniform(rng, 1, g.PreMax/4+1)
}

func uniform(rng *rand.Rand, lo, hi Time) Time {
	lo = max(1, lo)
	hi = max(lo, hi)
	if hi == lo {
		return lo
	}
	return lo + Time(rng.Int63n(int64(hi-lo+1)))
}

// PartitionDelay models a transient network partition in a reliable-channel
// world: messages crossing between the two sides before Heal are held back
// and delivered only after the partition heals (delay is finite, so
// reliability is preserved — the paper's channels never lose messages).
// Within a side, and after Heal, the Base policy applies. Partitions are
// the classic source of correlated false suspicions for timeout detectors.
type PartitionDelay struct {
	Base DelayPolicy
	Side map[ProcID]bool // the minority side; everyone else is majority
	Heal Time            // partition ends at this time
}

// Delay implements DelayPolicy.
func (p PartitionDelay) Delay(rng *rand.Rand, from, to ProcID, now Time) Time {
	if now < p.Heal && p.Side[from] != p.Side[to] {
		// Held until shortly after the heal, plus normal jitter.
		return (p.Heal - now) + p.Base.Delay(rng, from, to, p.Heal)
	}
	return p.Base.Delay(rng, from, to, now)
}

// BytesDelay derives every delay from a caller-supplied byte string, in
// round-robin order. It exists for schedule fuzzing: a fuzzer mutating the
// bytes explores message orderings directly, with full reproducibility.
// An empty or exhausted pattern behaves like FixedDelay{1}.
type BytesDelay struct {
	Pattern []byte
	Max     Time // delays are 1 + byte % Max (default 16)
	pos     int
}

// Delay implements DelayPolicy. BytesDelay is stateful: use one instance
// per kernel.
func (b *BytesDelay) Delay(_ *rand.Rand, _, _ ProcID, _ Time) Time {
	maxd := b.Max
	if maxd <= 0 {
		maxd = 16
	}
	if len(b.Pattern) == 0 {
		return 1
	}
	v := b.Pattern[b.pos%len(b.Pattern)]
	b.pos++
	return 1 + Time(v)%maxd
}
