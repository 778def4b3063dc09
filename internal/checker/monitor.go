package checker

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExclusionMonitor decides exclusion violations online: an rt.Tracer with
// O(diners + edges) state however long the run. Per diner it keeps whether
// it eats and whether it is dead (a crash ends its session), each since
// when; per edge, the start of the open segment in which both ends eat
// alive. A segment that closes with positive length, or is open at Report,
// is a violation. A session of p opened and closed within tick t violates
// (p,q) iff q's session began before t and is still open when t ends,
// neither end dead from before t through t: such sessions are decided when
// the stream moves past t. Records must arrive in time order; Report ends
// the stream (called again, it returns the same report).
type ExclusionMonitor struct {
	inst      string
	edges     [][2]sim.ProcID
	nbrs      [][]int // per diner: indices of its edges
	ds        []diner
	seg       []sim.Time // per edge: open segment start, Never if none
	now, last sim.Time
	zeros     []sim.ProcID // diners whose session opened and closed within tick now
	hits      []hit
	count     *metrics.Counter
}

type diner struct {
	eating, dead        bool
	eatSince, deadSince sim.Time
}

func (d diner) active() bool { return d.eating && !d.dead }

type hit struct {
	t sim.Time
	e int
}

// NewExclusionMonitor watches instance inst's eating sessions over conflict
// graph g, bumping violations (nil-safe) as each violation is decided.
func NewExclusionMonitor(g *graph.Graph, inst string, violations *metrics.Counter) *ExclusionMonitor {
	n := 0
	if nodes := g.Nodes(); len(nodes) > 0 {
		n = int(nodes[len(nodes)-1]) + 1
	}
	m := &ExclusionMonitor{inst: inst, edges: g.Edges(), nbrs: make([][]int, n), ds: make([]diner, n),
		seg: make([]sim.Time, g.M()), last: sim.Never, count: violations}
	for e, ab := range m.edges {
		m.nbrs[ab[0]] = append(m.nbrs[ab[0]], e)
		m.nbrs[ab[1]] = append(m.nbrs[ab[1]], e)
		m.seg[e] = sim.Never
	}
	return m
}

// Trace implements rt.Tracer.
func (m *ExclusionMonitor) Trace(r sim.Record) {
	if r.T != m.now {
		m.settle(r.T)
		m.now = r.T
	}
	if r.P < 0 || int(r.P) >= len(m.ds) {
		return
	}
	d := &m.ds[r.P]
	was := d.active()
	switch {
	case r.Kind == trace.KindState && r.Inst == m.inst && r.Note == "eating":
		if !d.eating {
			d.eating, d.eatSince = true, r.T
		}
	case r.Kind == trace.KindState && r.Inst == m.inst, r.Kind == trace.KindCrash:
		if d.eating && d.eatSince == r.T {
			m.zeros = append(m.zeros, r.P)
		}
		d.eating = false
		if r.Kind == trace.KindCrash && !d.dead {
			d.dead, d.deadSince = true, r.T
		}
	case r.Kind == trace.KindRecover:
		d.dead = false
	}
	if d.active() == was {
		return
	}
	for _, e := range m.nbrs[r.P] {
		q := m.edges[e][0] + m.edges[e][1] - r.P
		if s := m.seg[e]; was && s != sim.Never {
			if r.T > s {
				m.hit(s, e, r.T)
			}
			m.seg[e] = sim.Never
		} else if !was && m.ds[q].active() {
			m.seg[e] = r.T
		}
	}
}

// settle decides tick now's zero-length sessions, the stream having moved
// on to next (or ended there).
func (m *ExclusionMonitor) settle(next sim.Time) {
	deadThrough := func(p sim.ProcID) bool { return m.ds[p].dead && m.ds[p].deadSince < m.now }
	for _, p := range m.zeros {
		for _, e := range m.nbrs[p] {
			q := m.edges[e][0] + m.edges[e][1] - p
			if next > m.now && m.ds[q].eating && m.ds[q].eatSince < m.now && !deadThrough(p) && !deadThrough(q) {
				m.hit(m.now, e, m.now)
			}
		}
	}
	m.zeros = m.zeros[:0]
}

func (m *ExclusionMonitor) hit(t sim.Time, e int, end sim.Time) {
	m.hits = append(m.hits, hit{t, e})
	m.last = max(m.last, end)
	m.count.Inc()
}

// Report ends the stream at horizon and returns every violation, ordered by
// start time, then by edge (the order of g.Edges()).
func (m *ExclusionMonitor) Report(horizon sim.Time) ExclusionReport {
	m.settle(horizon)
	for e, s := range m.seg {
		if s != sim.Never && horizon > s {
			m.hit(s, e, horizon)
		}
		m.seg[e] = sim.Never
	}
	slices.SortFunc(m.hits, func(a, b hit) int { return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.e, b.e)) })
	rep := ExclusionReport{LastViolation: m.last}
	for _, h := range m.hits {
		rep.Violations = append(rep.Violations, Violation{Inst: m.inst, A: m.edges[h.e][0], B: m.edges[h.e][1], T: h.t})
	}
	return rep
}
