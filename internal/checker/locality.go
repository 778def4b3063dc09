package checker

import (
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// LocalityReport relates starvation to conflict-graph distance from the
// crashed processes — the "failure locality" measure of Choy and Singh that
// the paper invokes when citing [11] (◇P achieves crash-locality-1 dining
// under perpetual exclusion, and wait-freedom is exactly failure locality
// 0).
type LocalityReport struct {
	// Starved maps each starved correct process to its hop distance from
	// the nearest crashed process (-1 if no crash happened).
	Starved map[sim.ProcID]int
	// Locality is the largest distance observed among starved processes:
	// locality d means every starved process is within d hops of a crash
	// (1: only crashed processes' neighbors starved). -1 means none
	// starved, which is wait-freedom.
	Locality int
}

// FailureLocality computes the report for one dining instance: which
// correct diners starved (hungry at the end of the run, having been hungry
// since grace) and how far each is from a crashed process.
func FailureLocality(l *trace.Log, g *graph.Graph, inst string, grace, horizon sim.Time) LocalityReport {
	rep := LocalityReport{Starved: make(map[sim.ProcID]int), Locality: -1}
	crash := l.CrashTimes()
	var crashed []sim.ProcID
	for p := range crash {
		if g.Has(p) {
			crashed = append(crashed, p)
		}
	}
	dist := bfsDistances(g, crashed)
	for _, s := range WaitFreedom(l, inst, grace, horizon) {
		d, ok := dist[s.P]
		if !ok {
			d = -1
		}
		rep.Starved[s.P] = d
		if d > rep.Locality {
			rep.Locality = d
		}
	}
	return rep
}

// bfsDistances returns hop distances from the nearest source.
func bfsDistances(g *graph.Graph, sources []sim.ProcID) map[sim.ProcID]int {
	dist := make(map[sim.ProcID]int)
	queue := make([]sim.ProcID, 0, len(sources))
	for _, s := range sources {
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if _, seen := dist[v]; !seen {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
