// Package dining defines the dining-philosophers service abstraction used
// throughout this repository: diner state machines, the Table service
// interface, and a client driver.
//
// A dining instance is an undirected conflict graph whose vertices are
// diners. Each diner is thinking, hungry, eating, or exiting. A correct
// dining solution schedules hungry-to-eating transitions subject to an
// exclusion criterion; this repository provides solutions for eventual weak
// exclusion (no two live neighbors eat simultaneously, after finitely many
// mistakes) and perpetual weak exclusion (never), both wait-free (every
// correct hungry diner eventually eats, provided correct diners eat for
// finite time).
package dining

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rt"
)

// State is a diner's phase.
type State int

// The four diner phases of the paper's dining model.
const (
	Thinking State = iota // executing independently
	Hungry                // requesting the shared resources
	Eating                // in the critical section
	Exiting               // relinquishing the shared resources
)

var stateNames = [...]string{"thinking", "hungry", "eating", "exiting"}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// Diner is the local interface one process uses to participate in one dining
// instance. All methods must be called from within that process's own atomic
// steps (kernel action bodies, handlers, or timers).
type Diner interface {
	// Hungry requests the shared resources. Legal only when Thinking.
	Hungry()
	// Exit relinquishes the critical section. Legal only when Eating.
	Exit()
	// State returns the diner's current phase.
	State() State
	// OnChange registers a callback fired atomically on every state
	// transition. Multiple callbacks fire in registration order.
	OnChange(func(State))
}

// Table is one dining-service instance over a conflict graph.
type Table interface {
	// Name returns the unique instance name (used to namespace ports and
	// trace records).
	Name() string
	// Graph returns the conflict graph.
	Graph() *graph.Graph
	// Diner returns the local participant interface for process p, which
	// must be a vertex of the conflict graph.
	Diner(p rt.ProcID) Diner
}

// Factory constructs a dining service instance wired into the kernel. The
// reduction of the paper treats the factory as a black box: it must produce
// a wait-free dining service (under eventual or perpetual weak exclusion
// depending on the factory), and nothing else about it is assumed.
type Factory func(k rt.Runtime, g *graph.Graph, name string) Table

// Core is the shared diner state-machine helper embedded by Table
// implementations. It validates transitions, emits trace records, and runs
// callbacks. The zero value is not usable; initialize with NewCore.
type Core struct {
	K        rt.Runtime
	P        rt.ProcID
	Inst     string
	state    State
	onChange []func(State)
}

// NewCore returns a diner core in the Thinking state.
func NewCore(k rt.Runtime, p rt.ProcID, inst string) *Core {
	return &Core{K: k, P: p, Inst: inst}
}

// State returns the current phase.
func (c *Core) State() State { return c.state }

// OnChange registers a transition callback.
func (c *Core) OnChange(f func(State)) { c.onChange = append(c.onChange, f) }

// next is the one legal successor of each state of the diner state machine.
var next = [...]State{
	Thinking: Hungry,   // client request
	Hungry:   Eating,   // service grant
	Eating:   Exiting,  // client release
	Exiting:  Thinking, // service completes exit
}

// Set performs the transition to s, emitting a trace record and firing
// callbacks. It panics on an illegal transition: that is always an
// implementation bug, not a runtime condition.
func (c *Core) Set(s State) {
	if s != next[c.state] {
		panic(fmt.Sprintf("dining: illegal transition %v -> %v at %d (%s)", c.state, s, c.P, c.Inst))
	}
	c.state = s
	c.K.Emit(rt.Record{P: c.P, Kind: "state", Peer: -1, Inst: c.Inst, Note: s.String()})
	for _, f := range c.onChange {
		f(s)
	}
}

// Reset forces the diner back to Thinking regardless of its current phase,
// bypassing the transition check. It models a crash-recovery reboot:
// whatever phase the previous incarnation died in, the fresh one starts
// thinking. A state record is emitted and OnChange callbacks fire (so an
// attached Drive client re-schedules its next hunger).
func (c *Core) Reset() {
	c.state = Thinking
	c.K.Emit(rt.Record{P: c.P, Kind: "state", Peer: -1, Inst: c.Inst, Note: Thinking.String()})
	for _, f := range c.onChange {
		f(Thinking)
	}
}

// DriverConfig shapes the synthetic think/eat client behavior used by tests,
// examples and benchmarks.
type DriverConfig struct {
	ThinkMin, ThinkMax rt.Time // thinking duration before the next hunger
	EatMin, EatMax     rt.Time // eating duration before Exit
	Meals              int     // stop after this many meals; 0 = forever
	FirstHunger        rt.Time // delay before the first hunger (0 = ThinkMin..ThinkMax)
	NeverExit          bool    // enter the critical section once and stay (used by the Section-3 counterexample)
}

// Drive attaches a synthetic client to diner d at process p: it cycles
// thinking -> hungry -> eating -> exiting with randomized durations drawn
// from the kernel's deterministic random source.
func Drive(k rt.Runtime, p rt.ProcID, d Diner, cfg DriverConfig) {
	if cfg.ThinkMax < cfg.ThinkMin {
		cfg.ThinkMax = cfg.ThinkMin
	}
	if cfg.EatMax < cfg.EatMin {
		cfg.EatMax = cfg.EatMin
	}
	meals := 0
	// The two timer bodies are built once, not once per meal.
	hunger := func() {
		if d.State() == Thinking {
			d.Hungry()
		}
	}
	exit := func() {
		if d.State() == Eating {
			d.Exit()
		}
	}
	d.OnChange(func(s State) {
		switch s {
		case Eating:
			meals++
			if cfg.NeverExit {
				return
			}
			k.After(p, span(k, cfg.EatMin, cfg.EatMax), exit)
		case Thinking:
			if cfg.Meals > 0 && meals >= cfg.Meals {
				return
			}
			k.After(p, span(k, cfg.ThinkMin, cfg.ThinkMax), hunger)
		}
	})
	first := cfg.FirstHunger
	if first <= 0 {
		first = span(k, cfg.ThinkMin, cfg.ThinkMax)
	}
	k.After(p, first, hunger)
}

func span(k rt.Runtime, lo, hi rt.Time) rt.Time {
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		return lo
	}
	return lo + rt.Time(k.Rand().Int63n(int64(hi-lo+1)))
}
