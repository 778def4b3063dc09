// Package wsn models the duty-cycle scheduling scenario that motivates
// eventual weak exclusion in Section 2 of the paper: a wireless sensor
// network must keep a surveillance field covered while nodes sleep as much
// as possible to conserve their finite batteries.
//
// The shared resources are coverage cells; two sensors whose coverage areas
// overlap are neighbors in the conflict graph. A sensor volunteering for
// duty is hungry, a sensor on duty is eating. Scheduling mistakes — two
// overlapping sensors on duty simultaneously — only burn battery on
// redundant coverage (a performance cost), never break surveillance (a
// correctness property): exactly the class of applications for which ◇WX
// suffices where ℙWX is unimplementable.
//
// Battery is consumed while on duty; a depleted sensor crashes (power
// exhaustion is the fault model: every node is eventually faulty, which is
// why the scheduler must be wait-free). Sensors learn which of their cells
// are covered from ON/OFF broadcasts of their conflict-graph neighbors and
// volunteer whenever some cell of theirs appears uncovered.
package wsn

import (
	"fmt"
	"sort"

	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
)

// Field is the static deployment: which cells each sensor covers.
type Field struct {
	Cells    int
	Coverage map[sim.ProcID][]int // sensor -> covered cells, sorted
}

// NewTeamField deploys zones*perZone sensors over zones*cellsPerZone cells:
// zone z consists of cells [z*cellsPerZone, (z+1)*cellsPerZone) and is
// covered by the team of perZone interchangeable sensors z*perZone ..
// z*perZone+perZone-1. One on-duty sensor per team covers the whole field;
// teammates are redundant alternatives, which is exactly the node redundancy
// the paper's WSN scenario exploits: exclusion among teammates maximizes
// lifespan, and scheduling mistakes merely burn battery on double coverage.
func NewTeamField(zones, perZone, cellsPerZone int) *Field {
	if zones < 1 || perZone < 2 || cellsPerZone < 1 {
		panic("wsn: need zones >= 1, perZone >= 2, cellsPerZone >= 1")
	}
	f := &Field{Cells: zones * cellsPerZone, Coverage: make(map[sim.ProcID][]int, zones*perZone)}
	for z := 0; z < zones; z++ {
		var cv []int
		for c := z * cellsPerZone; c < (z+1)*cellsPerZone; c++ {
			cv = append(cv, c)
		}
		for r := 0; r < perZone; r++ {
			f.Coverage[sim.ProcID(z*perZone+r)] = cv
		}
	}
	return f
}

// ConflictGraph returns the graph with an edge between every two sensors
// that share a cell.
func (f *Field) ConflictGraph() *graph.Graph {
	g := graph.New()
	ids := f.sensors()
	for _, p := range ids {
		g.Add(p)
	}
	for i, p := range ids {
		for _, q := range ids[i+1:] {
			if sharesCell(f.Coverage[p], f.Coverage[q]) {
				if err := g.AddEdge(p, q); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func (f *Field) sensors() []sim.ProcID {
	ids := make([]sim.ProcID, 0, len(f.Coverage))
	for p := range f.Coverage {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sharesCell(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// SensorConfig tunes sensor behavior.
type SensorConfig struct {
	Battery sim.Time // total on-duty ticks before depletion (required)
	Shift   sim.Time // length of one duty shift (default 150)
	Sample  sim.Time // period of the local coverage check (default 30)
}

// Sensor is one node's duty-cycling logic on top of a dining service.
type Sensor struct {
	k       *sim.Kernel
	f       *Field
	self    sim.ProcID
	d       dining.Diner
	view    detector.View
	nbrs    []sim.ProcID
	dutyTo  []rt.Port // by index in nbrs: the neighbor's duty port
	nbrOn   map[sim.ProcID]bool
	battery sim.Time
	cfg     SensorConfig
}

// NewSensor attaches the duty-cycle logic for sensor p to diner d. oracle
// (a ◇P) tells the sensor which neighbors to stop counting on for coverage.
func NewSensor(k *sim.Kernel, f *Field, g *graph.Graph, p sim.ProcID, d dining.Diner, oracle detector.Oracle, name string, cfg SensorConfig) *Sensor {
	if cfg.Shift <= 0 {
		cfg.Shift = 150
	}
	if cfg.Sample <= 0 {
		cfg.Sample = 30
	}
	if cfg.Battery <= 0 {
		panic("wsn: battery required")
	}
	s := &Sensor{
		k: k, f: f, self: p, d: d,
		view:    detector.View{Oracle: oracle, Self: p},
		nbrs:    g.Neighbors(p),
		nbrOn:   make(map[sim.ProcID]bool),
		battery: cfg.Battery,
		cfg:     cfg,
	}
	for _, q := range s.nbrs {
		s.dutyTo = append(s.dutyTo, dutyPort(name, q))
	}
	k.Handle(p, dutyPort(name, p), s.onDutyMsg)
	d.OnChange(func(st dining.State) {
		on := st == dining.Eating
		if st == dining.Eating || st == dining.Exiting {
			s.broadcast(on)
		}
		if on {
			s.startShift()
		}
	})
	var sample func()
	sample = func() {
		s.sample()
		k.After(p, cfg.Sample, sample)
	}
	k.After(p, 1+sim.Time(p)%cfg.Sample, sample)
	return s
}

// Battery returns the remaining duty budget.
func (s *Sensor) Battery() sim.Time { return s.battery }

func (s *Sensor) broadcast(on bool) {
	for i, q := range s.nbrs {
		s.k.Send(s.self, q, s.dutyTo[i], on)
	}
}

// dutyPort is the port sensor p of the instance named name hears its
// neighbors' duty changes on.
func dutyPort(name string, p sim.ProcID) rt.Port {
	return rt.PortOf(fmt.Sprintf("%s/duty/%d", name, p))
}

func (s *Sensor) onDutyMsg(m sim.Message) {
	s.nbrOn[m.From] = m.Payload.(bool)
}

// covered reports whether every cell of ours is covered by a neighbor we
// believe to be on duty and do not suspect of having crashed.
func (s *Sensor) covered() bool {
	for _, c := range s.f.Coverage[s.self] {
		ok := false
		for _, q := range s.nbrs {
			if s.nbrOn[q] && !s.view.Suspected(q) && contains(s.f.Coverage[q], c) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func contains(cells []int, c int) bool {
	i := sort.SearchInts(cells, c)
	return i < len(cells) && cells[i] == c
}

// sample is the periodic local decision: volunteer when some of our cells
// look uncovered.
func (s *Sensor) sample() {
	if s.battery <= 0 {
		return
	}
	if s.d.State() == dining.Thinking && !s.covered() {
		s.d.Hungry()
	}
}

// startShift burns battery each tick while on duty and ends the shift (or
// the sensor) when the shift or the battery runs out. A sensor extends its
// shift while no teammate has taken over, up to a hard cap of four shifts —
// eating must stay finite for the dining contract, so a sole survivor duty-
// cycles in long stretches with brief hand-off gaps instead of squatting.
func (s *Sensor) startShift() {
	shiftEnd := s.k.Now() + s.cfg.Shift
	hardEnd := s.k.Now() + 4*s.cfg.Shift
	var tick func()
	tick = func() {
		if s.d.State() != dining.Eating {
			return
		}
		s.battery--
		if s.battery <= 0 {
			// Power depletion: the node is gone.
			s.k.CrashAt(s.self, s.k.Now()+1)
			return
		}
		if s.k.Now() >= hardEnd || (s.k.Now() >= shiftEnd && s.covered()) {
			s.d.Exit()
			return
		}
		s.k.After(s.self, 1, tick)
	}
	s.k.After(s.self, 1, tick)
}

// Report is the outcome of a WSN run, computed from the trace.
type Report struct {
	RedundantTicks int64    // sensor-duty ticks spent while an overlapping neighbor was also on duty
	DutyTicks      int64    // total sensor-duty ticks
	CoverageLoss   int64    // cell-ticks where a coverable cell had no on-duty cover
	Lifespan       sim.Time // first time some cell became uncoverable (all its sensors dead); horizon if never
}

// Analyze computes the report by replaying on-duty intervals from the trace
// log against the field geometry, sampling every tick.
func Analyze(records []sim.Record, f *Field, inst string, horizon sim.Time) Report {
	type span struct {
		p          sim.ProcID
		start, end sim.Time
	}
	var spans []span
	open := make(map[sim.ProcID]sim.Time)
	crash := make(map[sim.ProcID]sim.Time)
	for _, r := range records {
		switch {
		case r.Kind == "crash":
			if _, ok := crash[r.P]; !ok {
				crash[r.P] = r.T
			}
			if st, ok := open[r.P]; ok {
				spans = append(spans, span{r.P, st, r.T})
				delete(open, r.P)
			}
		case r.Kind == "state" && r.Inst == inst && r.Note == "eating":
			open[r.P] = r.T
		case r.Kind == "state" && r.Inst == inst && r.Note != "eating":
			if st, ok := open[r.P]; ok {
				spans = append(spans, span{r.P, st, r.T})
				delete(open, r.P)
			}
		}
	}
	for p, st := range open {
		spans = append(spans, span{p, st, horizon})
	}

	var rep Report
	rep.Lifespan = horizon
	// Sample coarsely (every 10 ticks) for tractability; durations are long
	// relative to the sampling period.
	const step = 10
	for t := sim.Time(0); t < horizon; t += step {
		onDuty := make(map[sim.ProcID]bool)
		for _, sp := range spans {
			if sp.start <= t && t < sp.end {
				onDuty[sp.p] = true
			}
		}
		for p := range onDuty {
			rep.DutyTicks += step
		redundant:
			for q := range onDuty {
				if q != p && sharesCell(f.Coverage[p], f.Coverage[q]) {
					rep.RedundantTicks += step
					break redundant
				}
			}
		}
		for c := 0; c < f.Cells; c++ {
			coverable, covered := false, false
			for p, cells := range f.Coverage {
				if !contains(cells, c) {
					continue
				}
				if ct, dead := crash[p]; !dead || ct > t {
					coverable = true
					if onDuty[p] {
						covered = true
					}
				}
			}
			if !coverable && rep.Lifespan == horizon {
				rep.Lifespan = t
			}
			if coverable && !covered {
				rep.CoverageLoss += step
			}
		}
	}
	return rep
}
