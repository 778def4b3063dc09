package checker

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExclusionQuadratic is Exclusion without the forward-moving window: per
// edge, every eating session of one endpoint against every session of the
// other. It is the reference TestExclusionMatchesQuadratic compares the
// linear sweep with, report for report.
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
	sort.Slice(rep.Violations, func(i, j int) bool { return rep.Violations[i].T < rep.Violations[j].T })
	return rep
}
