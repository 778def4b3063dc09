package checker

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// OracleReport summarizes how one failure-detector instance behaved in a
// run, per (monitor, target) pair and in aggregate. The aggregates count
// correct monitors only: those that never crashed in the run.
type OracleReport struct {
	Inst string
	// Mistakes counts false suspicions: suspect transitions of a pair whose
	// target never crashed, plus the initial suspicion if the oracle
	// suspects initially.
	Mistakes int
	// Convergence is the last time any correct monitor's output about a
	// correct target changed to trust (Never if it never did).
	Convergence sim.Time
	// DetectionLatency maps each crashed process to the worst-case time from
	// its crash until every correct monitor permanently suspected it.
	DetectionLatency map[sim.ProcID]sim.Time
	// QoS is the same run in Chen, Toueg and Aguilera's terms.
	QoS QoS
	// Pairs is the per-(monitor, target) evidence, in the order watched.
	Pairs []PairStats
}

// PairStats is what an OracleMonitor keeps about one ordered (monitor,
// target) pair. A suspect or trust record is a transition even when it
// repeats the current output.
type PairStats struct {
	P, Q sim.ProcID
	// Suspect is the final output.
	Suspect bool
	// Suspicions counts suspect transitions, plus one for an initial
	// suspicion.
	Suspicions int
	// LastSuspect and LastTrust are the last transitions of each kind, and
	// FirstWithdrawal the first trust-to-suspect one (each Never if none).
	LastSuspect, LastTrust, FirstWithdrawal sim.Time
	// PCrashed reports that the monitor crashed; QCrash is the target's
	// first crash (Never if none).
	PCrashed bool
	QCrash   sim.Time
	// Mistakes counts the stretches between transitions in which the output
	// was suspect while the target was alive; MistakeTotal sums their
	// lengths and MistakeMax is the longest.
	Mistakes                 int
	MistakeTotal, MistakeMax sim.Time
	// Right is the time in [0, horizon) the output was right: suspect iff
	// the target had crashed.
	Right sim.Time
}

// QoS quantifies a failure detector's quality of service in the style of
// Chen, Toueg and Aguilera: how fast it detects real crashes, how often it
// is wrong about live processes, and how long its mistakes last, over the
// correct monitors' pairs.
type QoS struct {
	Inst string
	// DetectionTime is the worst time from a crash to the *final* (stable)
	// suspicion across correct monitors (Never if nothing was detected).
	DetectionTime sim.Time
	// MistakeCount, MistakeDurationTotal and MistakeDurationMax sum and
	// bound the pairs' Mistakes, MistakeTotal and MistakeMax (an initial
	// suspicion counts from time 0).
	MistakeCount         int
	MistakeDurationTotal sim.Time
	MistakeDurationMax   sim.Time
	// QueryAccurate is the fraction of pair-time over [0, horizon) in which
	// the output was right.
	QueryAccurate float64
}

func (q QoS) String() string {
	det := "n/a"
	if q.DetectionTime != sim.Never {
		det = fmt.Sprintf("%d", q.DetectionTime)
	}
	return fmt.Sprintf("%s: detect=%s mistakes=%d dur(total=%d max=%d) accuracy=%.4f",
		q.Inst, det, q.MistakeCount, q.MistakeDurationTotal, q.MistakeDurationMax, q.QueryAccurate)
}

// OracleMonitor judges one oracle instance's output online: an rt.Tracer
// with O(pairs) state however long the run. Per watched pair it keeps a
// PairStats and the time its output has been accounted up to; per process,
// its first crash. Records must arrive in time order; Report ends the
// stream (called again, it returns the same report).
type OracleMonitor struct {
	inst  string
	n     int
	idx   []int // by p*n+q: index into ps, -1 if the pair is not watched
	ps    []pairState
	crash []sim.Time // by ProcID: first crash, Never if none
}

type pairState struct {
	PairStats
	since sim.Time
}

// NewOracleMonitor watches instance inst's output over the given distinct
// ordered (monitor, target) pairs; initialSuspect is the output before the
// first recorded change.
func NewOracleMonitor(inst string, pairs [][2]sim.ProcID, initialSuspect bool) *OracleMonitor {
	n := 0
	for _, pq := range pairs {
		n = max(n, int(pq[0])+1, int(pq[1])+1)
	}
	m := &OracleMonitor{inst: inst, n: n, idx: make([]int, n*n), ps: make([]pairState, len(pairs)), crash: make([]sim.Time, n)}
	for i := range m.idx {
		m.idx[i] = -1
	}
	for p := range m.crash {
		m.crash[p] = sim.Never
	}
	for i, pq := range pairs {
		m.idx[int(pq[0])*n+int(pq[1])] = i
		s := &m.ps[i].PairStats
		s.P, s.Q, s.Suspect = pq[0], pq[1], initialSuspect
		s.LastSuspect, s.LastTrust, s.FirstWithdrawal = sim.Never, sim.Never, sim.Never
		if initialSuspect {
			s.Suspicions = 1
		}
	}
	return m
}

// Trace implements rt.Tracer.
func (m *OracleMonitor) Trace(r sim.Record) {
	if r.P < 0 || int(r.P) >= m.n {
		return
	}
	switch r.Kind {
	case trace.KindCrash:
		if m.crash[r.P] == sim.Never {
			m.crash[r.P] = r.T
		}
	case trace.KindSuspect, trace.KindTrust:
		if r.Inst != m.inst || r.Peer < 0 || int(r.Peer) >= m.n {
			return
		}
		i := m.idx[int(r.P)*m.n+int(r.Peer)]
		if i < 0 {
			return
		}
		s := &m.ps[i]
		m.account(s, r.T)
		if r.Kind == trace.KindTrust {
			s.LastTrust = r.T
		} else {
			if !s.Suspect && s.FirstWithdrawal == sim.Never {
				s.FirstWithdrawal = r.T
			}
			s.Suspicions++
			s.LastSuspect = r.T
		}
		s.Suspect = r.Kind == trace.KindSuspect
	}
}

// account closes s's output segment [since, end). The target's crash, if it
// falls inside, splits it: before it a suspect output is a false suspicion
// and a trusting one is right; from it on, the reverse.
func (m *OracleMonitor) account(s *pairState, end sim.Time) {
	from := s.since
	if end <= from {
		return
	}
	s.since = end
	alive := end // end of the segment's part in which the target was alive
	if c := m.crash[s.Q]; c != sim.Never && c < end {
		alive = max(c, from)
	}
	if !s.Suspect {
		s.Right += alive - from
		return
	}
	s.Right += end - alive
	if d := alive - from; d > 0 {
		s.Mistakes++
		s.MistakeTotal += d
		s.MistakeMax = max(s.MistakeMax, d)
	}
}

// Report ends the stream at horizon, at or after the last record, and
// returns the report.
func (m *OracleMonitor) Report(horizon sim.Time) OracleReport {
	rep := OracleReport{Inst: m.inst, Convergence: sim.Never, DetectionLatency: make(map[sim.ProcID]sim.Time),
		QoS: QoS{Inst: m.inst, DetectionTime: sim.Never}, Pairs: make([]PairStats, len(m.ps))}
	q := &rep.QoS
	var right, span int64
	for i := range m.ps {
		s := &m.ps[i]
		m.account(s, horizon)
		s.PCrashed, s.QCrash = m.crash[s.P] != sim.Never, m.crash[s.Q]
		rep.Pairs[i] = s.PairStats
		if s.PCrashed {
			continue
		}
		q.MistakeCount += s.Mistakes
		q.MistakeDurationTotal += s.MistakeTotal
		q.MistakeDurationMax = max(q.MistakeDurationMax, s.MistakeMax)
		right, span = right+int64(s.Right), span+int64(horizon)
		if s.QCrash == sim.Never {
			rep.Mistakes += s.Suspicions
			rep.Convergence = max(rep.Convergence, s.LastTrust)
		} else if s.Suspect {
			// Detected at the last transition to (permanent) suspicion.
			lat := max(s.LastSuspect-s.QCrash, 0)
			if cur, ok := rep.DetectionLatency[s.Q]; !ok || lat > cur {
				rep.DetectionLatency[s.Q] = lat
			}
			q.DetectionTime = max(q.DetectionTime, lat)
		}
	}
	if span > 0 {
		q.QueryAccurate = float64(right) / float64(span)
	}
	return rep
}

// oracleReport feeds l through an OracleMonitor and reports at horizon, or,
// if horizon is Never, at the last record.
func oracleReport(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, horizon sim.Time) OracleReport {
	m := NewOracleMonitor(inst, pairs, initialSuspect)
	recs := inTimeOrder(l)
	for _, r := range recs {
		m.Trace(r)
	}
	if horizon == sim.Never && len(recs) > 0 {
		horizon = recs[len(recs)-1].T
	}
	return m.Report(horizon)
}

// AllPairs returns every ordered pair (p, q), p != q, over procs — the
// monitor set of a full extractor.
func AllPairs(procs []sim.ProcID) [][2]sim.ProcID {
	var out [][2]sim.ProcID
	for _, p := range procs {
		for _, q := range procs {
			if p != q {
				out = append(out, [2]sim.ProcID{p, q})
			}
		}
	}
	return out
}

// StrongCompleteness checks that every crashed process is eventually and
// permanently suspected by every correct monitor: for each such pair, the
// final output is suspect and no trust transition happens after stableBy.
// It returns the report and an error naming the first failing pair, if any.
func StrongCompleteness(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, stableBy sim.Time) (OracleReport, error) {
	rep := oracleReport(l, inst, pairs, initialSuspect, sim.Never)
	for _, s := range rep.Pairs {
		if s.PCrashed || s.QCrash == sim.Never {
			continue
		}
		if !s.Suspect {
			return rep, fmt.Errorf("checker: %s: %d never permanently suspected crashed %d", inst, s.P, s.Q)
		}
		if s.LastTrust != sim.Never && s.LastTrust > stableBy {
			return rep, fmt.Errorf("checker: %s: %d trusted crashed %d at t=%d (past stability bound %d)",
				inst, s.P, s.Q, s.LastTrust, stableBy)
		}
	}
	return rep, nil
}

// EventualStrongAccuracy checks that no correct monitor suspects a correct
// target after convergedBy: every correct-correct pair has no suspect
// transition after convergedBy and ends in trust.
func EventualStrongAccuracy(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, convergedBy sim.Time) (OracleReport, error) {
	rep := oracleReport(l, inst, pairs, initialSuspect, sim.Never)
	for _, s := range rep.Pairs {
		if s.PCrashed || s.QCrash != sim.Never {
			continue
		}
		if s.Suspect {
			return rep, fmt.Errorf("checker: %s: correct %d still suspects correct %d at end of run", inst, s.P, s.Q)
		}
		if s.LastSuspect != sim.Never && s.LastSuspect > convergedBy {
			return rep, fmt.Errorf("checker: %s: correct %d suspected correct %d at t=%d (past convergence bound %d)",
				inst, s.P, s.Q, s.LastSuspect, convergedBy)
		}
	}
	return rep, nil
}

// TrustingAccuracy checks the trusting oracle T's accuracy axioms: (a) every
// correct monitor eventually and permanently trusts every correct target
// (trust by convergedBy with no later suspicion), and (b) whenever a monitor
// stops trusting a target — a trust-to-suspect transition — the target had
// already crashed (at that tick or earlier). Every later withdrawal is
// excused if the first is.
func TrustingAccuracy(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, convergedBy sim.Time) (OracleReport, error) {
	rep := oracleReport(l, inst, pairs, initialSuspect, sim.Never)
	for _, s := range rep.Pairs {
		if s.PCrashed {
			continue
		}
		if w := s.FirstWithdrawal; w != sim.Never && (s.QCrash == sim.Never || s.QCrash > w) {
			return rep, fmt.Errorf("checker: %s: %d withdrew trust from live %d at t=%d (violates trusting accuracy)",
				inst, s.P, s.Q, w)
		}
		if s.QCrash != sim.Never {
			continue
		}
		if s.Suspect {
			return rep, fmt.Errorf("checker: %s: %d never trusted correct %d", inst, s.P, s.Q)
		}
		if s.LastSuspect != sim.Never && s.LastSuspect > convergedBy {
			return rep, fmt.Errorf("checker: %s: %d suspected correct %d at t=%d (past bound %d)",
				inst, s.P, s.Q, s.LastSuspect, convergedBy)
		}
	}
	return rep, nil
}

// MistakeCount returns the number of suspect transitions recorded for the
// ordered pair (p, q) in instance inst (plus one if initialSuspect): how
// often p suspected q, whether or not q had crashed, the metric of the
// Section 3 counterexample experiment.
func MistakeCount(l *trace.Log, inst string, p, q sim.ProcID, initialSuspect bool) int {
	return oracleReport(l, inst, [][2]sim.ProcID{{p, q}}, initialSuspect, sim.Never).Pairs[0].Suspicions
}

// MeasureQoS computes QoS for one oracle instance over the given ordered
// pairs. initialSuspect is the module output before its first recorded
// change; horizon, at or after the last record, closes open intervals.
func MeasureQoS(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, horizon sim.Time) QoS {
	return oracleReport(l, inst, pairs, initialSuspect, horizon).QoS
}

// SortedLatencies renders detection latencies deterministically for reports.
func SortedLatencies(m map[sim.ProcID]sim.Time) string {
	ids := make([]sim.ProcID, 0, len(m))
	for p := range m {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s := ""
	for i, p := range ids {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%d", p, m[p])
	}
	return s
}
