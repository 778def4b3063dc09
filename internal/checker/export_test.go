package checker

import (
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
