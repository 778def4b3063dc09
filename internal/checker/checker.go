// Package checker validates runs against the formal properties of the
// paper: weak-exclusion safety (eventual and perpetual), wait-freedom,
// eventual k-fairness, and the failure-detector class axioms (strong
// completeness, eventual strong accuracy, trusting accuracy). All checks
// work purely on trace records, so they validate what actually happened in
// a run rather than internal protocol state.
package checker

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Violation is one witnessed overlap of two live neighbors' eating sessions
// within a single dining instance.
type Violation struct {
	Inst string
	A, B sim.ProcID
	T    sim.Time // start of the overlap
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %d and %d eating together from t=%d", v.Inst, v.A, v.B, v.T)
}

// ExclusionReport summarizes the exclusion behavior of one run.
type ExclusionReport struct {
	Violations    []Violation
	LastViolation sim.Time // end of the last violating overlap (Never if none)
}

// Exclusion finds every overlap of live neighbors' eating sessions in the
// given dining instance: it feeds the log through an ExclusionMonitor and
// returns its report at horizon, the run end (for still-open sessions).
func Exclusion(l *trace.Log, g *graph.Graph, inst string, horizon sim.Time) ExclusionReport {
	m := NewExclusionMonitor(g, inst, nil)
	for _, r := range inTimeOrder(l) {
		m.Trace(r)
	}
	return m.Report(horizon)
}

// inTimeOrder returns l's records in time order, as the monitors need them:
// a recorded run's as they are, a hand-built log's stable-sorted by T (a
// copy).
func inTimeOrder(l *trace.Log) []sim.Record {
	byT := func(a, b sim.Record) int { return cmp.Compare(a.T, b.T) }
	if slices.IsSortedFunc(l.Records, byT) {
		return l.Records
	}
	recs := slices.Clone(l.Records)
	slices.SortStableFunc(recs, byT)
	return recs
}

// EventualWeakExclusion checks ◇WX: finitely many violations, all ending
// before the suffix [convergedBy, horizon]. It returns the report and an
// error describing the first post-convergence violation, if any. Callers
// pick convergedBy (e.g. a margin past GST and oracle convergence) so the
// check is meaningful: a run with violations right up to the horizon fails.
func EventualWeakExclusion(l *trace.Log, g *graph.Graph, inst string, convergedBy, horizon sim.Time) (ExclusionReport, error) {
	rep := Exclusion(l, g, inst, horizon)
	return rep, rep.Eventual(inst, convergedBy)
}

// Eventual is the ◇WX rule applied to a report of instance inst: an error
// if a violation lasted past convergedBy.
func (rep ExclusionReport) Eventual(inst string, convergedBy sim.Time) error {
	if rep.LastViolation != sim.Never && rep.LastViolation > convergedBy {
		return fmt.Errorf("checker: %s: exclusion violation persists past t=%d (last at t=%d)",
			inst, convergedBy, rep.LastViolation)
	}
	return nil
}

// PerpetualWeakExclusion checks ℙWX: no violations at all.
func PerpetualWeakExclusion(l *trace.Log, g *graph.Graph, inst string, horizon sim.Time) (ExclusionReport, error) {
	rep := Exclusion(l, g, inst, horizon)
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("checker: %s: %d perpetual-exclusion violations, first: %v",
			inst, len(rep.Violations), rep.Violations[0])
	}
	return rep, nil
}

// Starvation describes a correct diner left hungry at the end of a run.
type Starvation struct {
	Inst  string
	P     sim.ProcID
	Since sim.Time
}

func (s Starvation) String() string {
	return fmt.Sprintf("%s: %d hungry since t=%d without eating", s.Inst, s.P, s.Since)
}

// WaitFreedom checks that every hunger session of a correct (never-crashed)
// process ends in an eating session. A hunger session still open at the
// horizon counts as starvation only if it began before grace (hunger that
// started very late in the run has legitimately not been served yet).
//
// Only the session open at the end can starve, so one pass keeps, per
// diner, the start of its open hunger session in inst and whether it ever
// crashed; the result is ordered by process. WaitFreedomSessions
// (export_test.go) is the definition over Log.Sessions it must equal.
func WaitFreedom(l *trace.Log, inst string, grace, horizon sim.Time) []Starvation {
	var since []sim.Time // by ProcID: start of the open hunger session, or Never
	var crashed []bool   // by ProcID
	for i := range l.Records {
		r := &l.Records[i]
		switch {
		case r.Kind == trace.KindCrash:
			crashed = growTo(crashed, r.P, false)
			crashed[r.P] = true
		case r.Kind == trace.KindState && r.Inst == inst:
			since = growTo(since, r.P, sim.Never)
			if r.Note != "hungry" {
				since[r.P] = sim.Never
			} else if since[r.P] == sim.Never {
				since[r.P] = r.T
			}
		}
	}
	var out []Starvation
	for p, s := range since {
		if s == sim.Never || s > grace || p < len(crashed) && crashed[p] {
			continue // fed, hungry too recently, or not owed progress
		}
		out = append(out, Starvation{Inst: inst, P: sim.ProcID(p), Since: s})
	}
	return out
}

// growTo returns s extended with fill so that p indexes it.
func growTo[T any](s []T, p sim.ProcID, fill T) []T {
	for int(p) >= len(s) {
		s = append(s, fill)
	}
	return s
}

// Overtake records one process exceeding the k-fairness bound against a
// continuously hungry correct neighbor.
type Overtake struct {
	Inst   string
	Eater  sim.ProcID
	Victim sim.ProcID
	Count  int
	T      sim.Time // when the bound was exceeded
}

func (o Overtake) String() string {
	return fmt.Sprintf("%s: %d ate %d times while neighbor %d stayed hungry (t=%d)",
		o.Inst, o.Eater, o.Count, o.Victim, o.T)
}

// KFairness checks eventual k-fairness over the suffix [from, horizon]: no
// process completes more than k eating sessions that both start and end
// inside a single hunger session of a live correct neighbor, counting only
// sessions starting after from. It returns every overtake beyond the bound.
func KFairness(l *trace.Log, g *graph.Graph, inst string, k int, from, horizon sim.Time) []Overtake {
	eat := l.Sessions("eating")
	hungry := l.Sessions("hungry")
	crash := l.CrashTimes()
	var out []Overtake
	for _, victim := range g.Nodes() {
		if _, crashed := crash[victim]; crashed {
			continue
		}
		for _, hv := range hungry[trace.SessionKey{Inst: inst, P: victim}] {
			hStart := hv.Start
			hEnd := endOr(hv.End, horizon)
			if hStart < from {
				hStart = from
			}
			if hStart >= hEnd {
				continue
			}
			for _, eater := range g.Neighbors(victim) {
				n := 0
				for _, ev := range eat[trace.SessionKey{Inst: inst, P: eater}] {
					if ev.Start >= hStart && ev.Closed() && ev.End <= hEnd {
						n++
						if n > k {
							out = append(out, Overtake{Inst: inst, Eater: eater, Victim: victim, Count: n, T: ev.End})
						}
					}
				}
			}
		}
	}
	return out
}

func endOr(t, horizon sim.Time) sim.Time {
	if t == sim.Never {
		return horizon
	}
	return t
}

// ResponseStats summarizes hungry-to-eating latency for one dining
// instance: how long diners waited for their critical sections.
type ResponseStats struct {
	Served int // completed hungry->eating transitions measured
	Min    sim.Time
	Max    sim.Time
	Mean   float64
	P99    sim.Time
}

// ResponseTimes computes latency statistics over every hunger session that
// ended (in eating) at or after `from`. Open sessions are not counted; use
// WaitFreedom to flag those.
func ResponseTimes(l *trace.Log, inst string, from sim.Time) ResponseStats {
	hungry := l.Sessions("hungry")
	var lats []sim.Time
	for key, ivs := range hungry {
		if key.Inst != inst {
			continue
		}
		for _, iv := range ivs {
			if iv.Closed() && iv.End >= from {
				lats = append(lats, iv.End-iv.Start)
			}
		}
	}
	var st ResponseStats
	st.Served = len(lats)
	if st.Served == 0 {
		return st
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st.Min, st.Max = lats[0], lats[len(lats)-1]
	var sum int64
	for _, v := range lats {
		sum += int64(v)
	}
	st.Mean = float64(sum) / float64(len(lats))
	st.P99 = lats[(len(lats)*99)/100]
	return st
}
