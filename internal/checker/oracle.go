package checker

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// OracleReport summarizes how one failure-detector instance behaved in a
// run, per (monitor, target) pair and in aggregate.
type OracleReport struct {
	Inst string
	// Mistakes counts false suspicions: suspect transitions of a pair whose
	// target was live at the time, plus the initial suspicion if the target
	// never crashed (oracles in this repository suspect initially).
	Mistakes int
	// Convergence is the last time any correct monitor's output about a
	// correct target changed to trust after a false suspicion (Never if the
	// oracle never made a mistake).
	Convergence sim.Time
	// DetectionLatency maps each crashed process to the worst-case time from
	// its crash until every correct monitor permanently suspected it.
	DetectionLatency map[sim.ProcID]sim.Time
	// Pairs is the per-(monitor, target) evidence examined.
	Pairs []PairEvidence
}

// PairEvidence is the suspicion history of one ordered (monitor, target)
// pair together with the verdicts derived from it.
type PairEvidence struct {
	P, Q         sim.ProcID
	Changes      []trace.SuspicionChange
	FinalSuspect bool
	QCrashed     bool
	QCrashTime   sim.Time
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

// oracleHistory assembles per-pair evidence for one oracle instance over the
// given ordered (monitor, target) pairs, with crash the log's CrashTimes.
// initialSuspect is the module output before the first recorded change.
func oracleHistory(l *trace.Log, crash map[sim.ProcID]sim.Time, inst string, pairs [][2]sim.ProcID, initialSuspect bool) []PairEvidence {
	sus := l.Suspicions()
	var out []PairEvidence
	for _, pq := range pairs {
		p, q := pq[0], pq[1]
		ev := PairEvidence{P: p, Q: q, FinalSuspect: initialSuspect}
		ev.Changes = sus[trace.SuspicionKey{Inst: inst, P: p, Peer: q}]
		if len(ev.Changes) > 0 {
			ev.FinalSuspect = ev.Changes[len(ev.Changes)-1].Suspect
		}
		if ct, ok := crash[q]; ok {
			ev.QCrashed, ev.QCrashTime = true, ct
		} else {
			ev.QCrashTime = sim.Never
		}
		out = append(out, ev)
	}
	return out
}

// correct reports whether p never crashed in the run, given its CrashTimes.
func correct(crash map[sim.ProcID]sim.Time, p sim.ProcID) bool {
	_, crashed := crash[p]
	return !crashed
}

// StrongCompleteness checks that every crashed process is eventually and
// permanently suspected by every correct monitor: for each such pair, the
// final output is suspect and no trust transition happens after stableBy.
// It returns the report and the first failing pair, if any.
func StrongCompleteness(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, stableBy sim.Time) (OracleReport, error) {
	rep, crash := newReport(l, inst, pairs, initialSuspect)
	for _, ev := range rep.Pairs {
		if !correct(crash, ev.P) || !ev.QCrashed {
			continue
		}
		if !ev.FinalSuspect {
			return rep, fmt.Errorf("checker: %s: %d never permanently suspected crashed %d", inst, ev.P, ev.Q)
		}
		for _, c := range ev.Changes {
			if !c.Suspect && c.T > stableBy {
				return rep, fmt.Errorf("checker: %s: %d trusted crashed %d at t=%d (past stability bound %d)",
					inst, ev.P, ev.Q, c.T, stableBy)
			}
		}
	}
	return rep, nil
}

// EventualStrongAccuracy checks that no correct monitor suspects a correct
// target after convergedBy: every correct-correct pair's history has no
// suspect transition after convergedBy and ends in trust.
func EventualStrongAccuracy(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, convergedBy sim.Time) (OracleReport, error) {
	rep, crash := newReport(l, inst, pairs, initialSuspect)
	for _, ev := range rep.Pairs {
		if !correct(crash, ev.P) || ev.QCrashed {
			continue
		}
		if ev.FinalSuspect {
			return rep, fmt.Errorf("checker: %s: correct %d still suspects correct %d at end of run", inst, ev.P, ev.Q)
		}
		for _, c := range ev.Changes {
			if c.Suspect && c.T > convergedBy {
				return rep, fmt.Errorf("checker: %s: correct %d suspected correct %d at t=%d (past convergence bound %d)",
					inst, ev.P, ev.Q, c.T, convergedBy)
			}
		}
	}
	return rep, nil
}

// TrustingAccuracy checks the trusting oracle T's accuracy axioms: (a) every
// correct monitor eventually and permanently trusts every correct target
// (trust by convergedBy with no later suspicion), and (b) whenever a monitor
// stops trusting a target — a trust-to-suspect transition — the target had
// already crashed.
func TrustingAccuracy(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, convergedBy sim.Time) (OracleReport, error) {
	rep, crash := newReport(l, inst, pairs, initialSuspect)
	for _, ev := range rep.Pairs {
		if !correct(crash, ev.P) {
			continue
		}
		// (b) trust withdrawal implies a prior crash, for every target.
		trusted := !initialSuspect
		for _, c := range ev.Changes {
			if c.Suspect && trusted {
				if !ev.QCrashed || ev.QCrashTime > c.T {
					return rep, fmt.Errorf("checker: %s: %d withdrew trust from live %d at t=%d (violates trusting accuracy)",
						inst, ev.P, ev.Q, c.T)
				}
			}
			trusted = !c.Suspect
		}
		// (a) eventual permanent trust of correct targets.
		if !ev.QCrashed {
			if ev.FinalSuspect {
				return rep, fmt.Errorf("checker: %s: %d never trusted correct %d", inst, ev.P, ev.Q)
			}
			for _, c := range ev.Changes {
				if c.Suspect && c.T > convergedBy {
					return rep, fmt.Errorf("checker: %s: %d suspected correct %d at t=%d (past bound %d)",
						inst, ev.P, ev.Q, c.T, convergedBy)
				}
			}
		}
	}
	return rep, nil
}

// newReport builds the aggregate OracleReport (mistakes, convergence time,
// detection latencies) for one oracle instance, and returns with it the
// log's CrashTimes, read once for the report and the check over it.
func newReport(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool) (OracleReport, map[sim.ProcID]sim.Time) {
	crash := l.CrashTimes()
	rep := OracleReport{
		Inst:             inst,
		Convergence:      sim.Never,
		DetectionLatency: make(map[sim.ProcID]sim.Time),
	}
	rep.Pairs = oracleHistory(l, crash, inst, pairs, initialSuspect)
	for _, ev := range rep.Pairs {
		if !correct(crash, ev.P) {
			continue
		}
		if !ev.QCrashed {
			if initialSuspect {
				rep.Mistakes++ // the initial suspicion of a correct target
			}
			for _, c := range ev.Changes {
				if c.Suspect {
					rep.Mistakes++
				} else if c.T > rep.Convergence {
					rep.Convergence = c.T
				}
			}
			continue
		}
		// Detection latency: time of the last transition to (permanent)
		// suspicion, relative to the crash.
		if ev.FinalSuspect {
			when := sim.Time(0) // suspected from the start
			for _, c := range ev.Changes {
				if c.Suspect {
					when = c.T
				}
			}
			lat := when - ev.QCrashTime
			if lat < 0 {
				lat = 0
			}
			if cur, ok := rep.DetectionLatency[ev.Q]; !ok || lat > cur {
				rep.DetectionLatency[ev.Q] = lat
			}
		}
	}
	return rep, crash
}

// MistakeCount returns the number of suspect transitions recorded for the
// ordered pair (p, q) in instance inst (plus one if initialSuspect), which
// is the "how often was q suspected by p" metric used in the Section 3
// counterexample experiment.
func MistakeCount(l *trace.Log, inst string, p, q sim.ProcID, initialSuspect bool) int {
	n := 0
	if initialSuspect {
		n++
	}
	for _, c := range l.Suspicions()[trace.SuspicionKey{Inst: inst, P: p, Peer: q}] {
		if c.Suspect {
			n++
		}
	}
	return n
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
