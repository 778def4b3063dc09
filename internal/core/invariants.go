package core

import (
	"fmt"

	"repro/internal/dining"
	"repro/internal/rt"
)

// MessageStats counts the reduction's own protocol messages for one pair
// monitor. Conservation (sent minus received) makes the in-transit count of
// Lemma 3 observable without opening the network.
type MessageStats struct {
	PingsSent [2]int64 // by the subject, per instance
	PingsRecv [2]int64 // by the witness, per instance
	AcksSent  [2]int64 // by the witness, per instance
	AcksRecv  [2]int64 // by the subject, per instance
}

// PingsInFlight returns the pings of instance i currently in transit.
func (s MessageStats) PingsInFlight(i int) int64 { return s.PingsSent[i] - s.PingsRecv[i] }

// AcksInFlight returns the acks of instance i currently in transit.
func (s MessageStats) AcksInFlight(i int) int64 { return s.AcksSent[i] - s.AcksRecv[i] }

// Stats returns the monitor's message accounting.
func (m *PairMonitor) Stats() MessageStats { return m.stats }

// SubjectEating reports whether some subject thread is eating — the body of
// Lemma 8's suffix invariant (s₀ eating ∨ s₁ eating).
func (m *PairMonitor) SubjectEating() bool {
	return m.sd[0].State() == dining.Eating || m.sd[1].State() == dining.Eating
}

// CheckInvariants evaluates the paper's always-invariants (they hold from
// the initial configuration, not merely eventually) in the monitor's current
// configuration and returns a description of each violated one:
//
//	Lemma 2: (sᵢ.state ≠ eating) ⇒ (pingᵢ = true)
//	Lemma 3: (sᵢ.state ≠ eating ∧ pingᵢ) ⇒ no ping/ack of instance i in transit
//	Lemma 4: (sᵢ.state = hungry) ⇒ (trigger = i)
//	Lemma 9: (w₀.state = thinking) ∨ (w₁.state = thinking)
//
// Lemma 8's invariant is a suffix property; sample SubjectEating instead.
// The checks read both endpoints' state atomically, which only the
// simulation harness can do — this is a verification device, not part of
// the algorithm.
func (m *PairMonitor) CheckInvariants() []string {
	var bad []string
	crashed := m.k.Crashed(m.p) || m.k.Crashed(m.q)
	if crashed {
		// After a crash the dead side's variables are frozen; the paper's
		// invariants quantify over live configurations.
		return nil
	}
	for i := 0; i < 2; i++ {
		if m.sd[i].State() != dining.Eating && !m.ping[i] {
			bad = append(bad, fmt.Sprintf("lemma2[i=%d]: subject not eating but ping disabled", i))
		}
		if m.sd[i].State() != dining.Eating && m.ping[i] {
			if m.stats.PingsInFlight(i) != 0 || m.stats.AcksInFlight(i) != 0 {
				bad = append(bad, fmt.Sprintf("lemma3[i=%d]: %d pings, %d acks in transit",
					i, m.stats.PingsInFlight(i), m.stats.AcksInFlight(i)))
			}
		}
		if m.sd[i].State() == dining.Hungry && m.trigger != i {
			bad = append(bad, fmt.Sprintf("lemma4[i=%d]: subject hungry but trigger=%d", i, m.trigger))
		}
	}
	if m.wd[0].State() != dining.Thinking && m.wd[1].State() != dining.Thinking {
		bad = append(bad, fmt.Sprintf("lemma9: witnesses simultaneously %v and %v",
			m.wd[0].State(), m.wd[1].State()))
	}
	return bad
}

// WatchInvariants polls CheckInvariants every interval ticks (attached to an
// arbitrary live process's timer wheel; the check itself is global) and
// reports each violation through the callback. It also samples Lemma 8's
// suffix invariant and reports, at each poll after `suffixFrom`, a violation
// if no subject is eating. Returns a counter that holds the total number of
// violations seen.
func (m *PairMonitor) WatchInvariants(interval, suffixFrom rt.Time, report func(at rt.Time, what string)) *int {
	count := new(int)
	var poll func()
	poll = func() {
		for _, what := range m.CheckInvariants() {
			*count++
			report(m.k.Now(), what)
		}
		if m.k.Now() >= suffixFrom && !m.k.Crashed(m.q) && !m.k.Crashed(m.p) && !m.SubjectEating() {
			*count++
			report(m.k.Now(), "lemma8-suffix: no subject eating")
		}
		m.k.After(m.p, interval, poll)
	}
	m.k.After(m.p, interval, poll)
	return count
}
