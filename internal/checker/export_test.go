package checker

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExclusionQuadratic is the batch definition Exclusion's monitor must meet:
// per edge, every eating session of one endpoint against every session of
// the other, minus the periods either endpoint was dead. It is the reference
// TestExclusionMatchesQuadratic and FuzzExclusionMonitor compare the
// monitor with, report for report. Violations come out in (T, edge) order.
func ExclusionQuadratic(l *trace.Log, g *graph.Graph, inst string, horizon sim.Time) ExclusionReport {
	eat := l.Sessions("eating")
	dead := l.DeadIntervals()
	var rep ExclusionReport
	rep.LastViolation = sim.Never
	for _, e := range g.Edges() {
		a, b := e[0], e[1]
		as := eat[trace.SessionKey{Inst: inst, P: a}]
		bs := eat[trace.SessionKey{Inst: inst, P: b}]
		downtime := append(append([]trace.Interval(nil), dead[a]...), dead[b]...)
		for _, ia := range as {
			for _, ib := range bs {
				if !ia.Overlaps(ib, horizon) {
					continue
				}
				lo := max(ia.Start, ib.Start)
				hi := endOr(ia.End, horizon)
				if e2 := endOr(ib.End, horizon); e2 < hi {
					hi = e2
				}
				for _, seg := range subtractDead(lo, hi, downtime) {
					rep.Violations = append(rep.Violations, Violation{Inst: inst, A: a, B: b, T: seg.Start})
					if seg.End > rep.LastViolation {
						rep.LastViolation = seg.End
					}
				}
			}
		}
	}
	sort.SliceStable(rep.Violations, func(i, j int) bool { return rep.Violations[i].T < rep.Violations[j].T })
	return rep
}

// subtractDead removes every dead period from [lo, hi) and returns the
// surviving sub-intervals in time order. An open dead interval (End ==
// sim.Never) is unbounded: it extends past hi, so it also excuses a
// zero-length overlap at hi, exactly as a closed dead interval spanning hi
// does. (Clipping it at hi would report that overlap; only a log in which a
// dead process emits eating records can reach the difference.)
func subtractDead(lo, hi sim.Time, dead []trace.Interval) []trace.Interval {
	segs := []trace.Interval{{Start: lo, End: hi}}
	for _, d := range dead {
		dEnd := d.End
		if dEnd == sim.Never {
			dEnd = hi + 1
		}
		var next []trace.Interval
		for _, s := range segs {
			if d.Start >= s.End || dEnd <= s.Start {
				next = append(next, s)
				continue
			}
			if d.Start > s.Start {
				next = append(next, trace.Interval{Start: s.Start, End: d.Start})
			}
			if dEnd < s.End {
				next = append(next, trace.Interval{Start: dEnd, End: s.End})
			}
		}
		segs = next
	}
	return segs
}

// WaitFreedomSessions is the definition WaitFreedom's one pass must meet:
// every never-crashed diner's hunger sessions from Log.Sessions, reporting
// the open ones that began by grace, in process order.
// TestWaitFreedomMatchesSessions compares the two.
func WaitFreedomSessions(l *trace.Log, inst string, grace, horizon sim.Time) []Starvation {
	hungry := l.Sessions("hungry")
	crash := l.CrashTimes()
	var out []Starvation
	keys := make([]trace.SessionKey, 0, len(hungry))
	for k := range hungry {
		if k.Inst == inst {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].P < keys[j].P })
	for _, k := range keys {
		if _, crashed := crash[k.P]; crashed {
			continue // only correct processes are owed progress
		}
		for _, iv := range hungry[k] {
			if iv.Closed() {
				continue // hunger ended; the state machine only permits hungry->eating
			}
			if iv.Start <= grace {
				out = append(out, Starvation{Inst: k.Inst, P: k.P, Since: iv.Start})
			}
		}
	}
	return out
}

// pairHistory is one (monitor, target) pair's whole suspicion history,
// as the batch ◇P definitions below read it.
type pairHistory struct {
	P, Q         sim.ProcID
	Changes      []trace.SuspicionChange
	FinalSuspect bool
	QCrashed     bool
	QCrashTime   sim.Time
}

// pairHistories copies each pair's history out of Log.Suspicions; crash is
// the log's CrashTimes and initialSuspect the output before the first
// recorded change.
func pairHistories(l *trace.Log, crash map[sim.ProcID]sim.Time, inst string, pairs [][2]sim.ProcID, initialSuspect bool) []pairHistory {
	sus := l.Suspicions()
	var out []pairHistory
	for _, pq := range pairs {
		p, q := pq[0], pq[1]
		ev := pairHistory{P: p, Q: q, FinalSuspect: initialSuspect}
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

// historyReport is the batch definition of OracleReport's aggregates (Mistakes,
// Convergence, DetectionLatency; Pairs and QoS are left empty), returned
// with every pair's evidence and the log's CrashTimes.
func historyReport(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool) (OracleReport, []pairHistory, map[sim.ProcID]sim.Time) {
	crash := l.CrashTimes()
	rep := OracleReport{
		Inst:             inst,
		Convergence:      sim.Never,
		DetectionLatency: make(map[sim.ProcID]sim.Time),
	}
	evs := pairHistories(l, crash, inst, pairs, initialSuspect)
	for _, ev := range evs {
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
	return rep, evs, crash
}

// StrongCompletenessHistory, EventualStrongAccuracyHistory,
// TrustingAccuracyHistory and MeasureQoSHistory are the batch definitions
// the OracleMonitor-backed checks must meet, each walking every pair's
// whole history. TestOracleMatchesHistory and FuzzOracleMonitor compare the
// two: same verdict, same failing pair and rule, same aggregates.
func StrongCompletenessHistory(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, stableBy sim.Time) (OracleReport, error) {
	rep, evs, crash := historyReport(l, inst, pairs, initialSuspect)
	for _, ev := range evs {
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

func EventualStrongAccuracyHistory(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, convergedBy sim.Time) (OracleReport, error) {
	rep, evs, crash := historyReport(l, inst, pairs, initialSuspect)
	for _, ev := range evs {
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

func TrustingAccuracyHistory(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, convergedBy sim.Time) (OracleReport, error) {
	rep, evs, crash := historyReport(l, inst, pairs, initialSuspect)
	for _, ev := range evs {
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

// MeasureQoSHistory walks each correct monitor's output intervals. Query
// accuracy is the exact interval sum: 1 minus the time the output was
// wrong (suspect while the target lived, trust after it crashed) over
// pair-time [0, horizon).
func MeasureQoSHistory(l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, horizon sim.Time) QoS {
	q := QoS{Inst: inst, DetectionTime: sim.Never}
	crash := l.CrashTimes()
	sus := l.Suspicions()
	var wrong, span int64
	for _, pq := range pairs {
		p, t := pq[0], pq[1]
		if _, monitorCrashed := crash[p]; monitorCrashed {
			continue
		}
		changes := sus[trace.SuspicionKey{Inst: inst, P: p, Peer: t}]
		targetCrash, targetCrashed := crash[t]
		span += int64(horizon)

		cur := initialSuspect
		curStart := sim.Time(0)
		flush := func(end sim.Time) {
			// Interval [curStart, end) with output cur.
			if cur {
				// False-suspicion portion: while the target was live.
				liveEnd := end
				if targetCrashed && targetCrash < liveEnd {
					liveEnd = targetCrash
				}
				if liveEnd > curStart {
					d := liveEnd - curStart
					q.MistakeCount++
					q.MistakeDurationTotal += d
					if d > q.MistakeDurationMax {
						q.MistakeDurationMax = d
					}
					wrong += int64(d)
				}
			} else if targetCrashed && end > max(curStart, targetCrash) {
				wrong += int64(end - max(curStart, targetCrash)) // trusting the dead
			}
		}
		for _, c := range changes {
			flush(c.T)
			cur = c.Suspect
			curStart = c.T
		}
		flush(horizon)

		// Stable detection time: the last transition to suspicion, if the
		// final output is suspect and the target crashed.
		if targetCrashed && cur {
			when := sim.Time(0)
			for _, c := range changes {
				if c.Suspect {
					when = c.T
				}
			}
			lat := when - targetCrash
			if lat < 0 {
				lat = 0
			}
			if q.DetectionTime == sim.Never || lat > q.DetectionTime {
				q.DetectionTime = lat
			}
		}
	}
	if span > 0 {
		q.QueryAccurate = float64(span-wrong) / float64(span)
	}
	return q
}
