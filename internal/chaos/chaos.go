// Package chaos is the campaign engine that hunts for property violations
// in the dining boxes: it sweeps (topology × box × fault plan × delay policy
// × seed) spaces, runs every configuration under the full checker suite with
// the kernel's robustness hooks armed (state-triggered crashes, budget
// watchdog, panic recovery), and delta-debugs any failing configuration down
// to a minimal reproducer serialized as a JSON artifact that tests replay
// deterministically.
//
// The engine treats every box as a black box, in the spirit of the paper's
// quantification over *any* WF-◇WX service: a run is described entirely by
// a declarative Spec (no code, no closures), so a failing Spec is a complete,
// shareable counterexample. The planted-bug box ("buggy", forks over a
// detector that never suspects, so its crash-tolerance override never
// fires) keeps the engine honest:
// campaigns over it must catch and shrink a real wait-freedom violation,
// proving the pipeline can find what it claims to find.
package chaos

import (
	"encoding/json"
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Spec is a fully declarative description of one chaos run. Two executions
// of the same Spec produce identical traces (see Execute), which is what
// makes shrunk specs replayable repro artifacts.
type Spec struct {
	Topology string      `json:"topology"`          // ring|clique|path|star|pair|grid
	N        int         `json:"n"`                 // number of diners (≥ 2)
	Box      string      `json:"box"`               // forks|token|perfect|trap|fair|buggy
	Seed     int64       `json:"seed"`              // kernel seed
	Horizon  sim.Time    `json:"horizon"`           // virtual-time bound
	Delay    DelaySpec   `json:"delay"`             // message-delay policy
	Crashes  []CrashSpec `json:"crashes,omitempty"` // fault plan (time- or state-triggered)
	Era      sim.Time    `json:"era,omitempty"`     // trap box mistake era (default horizon/8)

	// Links, when non-nil, installs the fair-lossy link adversary; Transport
	// runs every box and oracle over the retransmitting reliable transport
	// (internal/transport), which is what keeps lossy runs within the
	// paper's channel axioms.
	Links     *LinkSpec `json:"links,omitempty"`
	Transport bool      `json:"transport,omitempty"`

	// Budget overrides the default watchdog budget (zero fields inherit the
	// defaults Execute derives from N and Horizon).
	Budget BudgetSpec `json:"budget,omitempty"`
}

// DelaySpec selects a sim.DelayPolicy declaratively.
type DelaySpec struct {
	Kind    string   `json:"kind"`              // fixed|uniform|gst
	Delay   sim.Time `json:"delay,omitempty"`   // fixed: the delay
	Min     sim.Time `json:"min,omitempty"`     // uniform: bounds
	Max     sim.Time `json:"max,omitempty"`     //
	GST     sim.Time `json:"gst,omitempty"`     // gst: stabilization time
	PreMax  sim.Time `json:"premax,omitempty"`  // gst: pre-GST worst case
	PostMax sim.Time `json:"postmax,omitempty"` // gst: post-GST bound
}

// Policy materializes the delay policy.
func (d DelaySpec) Policy() (sim.DelayPolicy, error) {
	switch d.Kind {
	case "fixed":
		return sim.FixedDelay{D: d.Delay}, nil
	case "uniform":
		return sim.UniformDelay{Min: d.Min, Max: d.Max}, nil
	case "gst":
		return sim.GSTDelay{GST: d.GST, PreMax: d.PreMax, PostMax: d.PostMax}, nil
	}
	return nil, fmt.Errorf("chaos: unknown delay kind %q", d.Kind)
}

func (d DelaySpec) String() string {
	switch d.Kind {
	case "fixed":
		return fmt.Sprintf("fixed(%d)", d.Delay)
	case "uniform":
		return fmt.Sprintf("uniform(%d..%d)", d.Min, d.Max)
	case "gst":
		return fmt.Sprintf("gst(%d,pre=%d,post=%d)", d.GST, d.PreMax, d.PostMax)
	}
	return d.Kind
}

// LinkSpec selects a sim.LinkPlan declaratively: steady-state loss,
// duplication, bounded reordering, and transient lossy windows.
type LinkSpec struct {
	Drop    float64      `json:"drop,omitempty"`    // per-message drop probability, [0, 1)
	Dup     float64      `json:"dup,omitempty"`     // duplication probability, [0, 1]
	Reorder sim.Time     `json:"reorder,omitempty"` // extra delay bound (reordering)
	Windows []WindowSpec `json:"windows,omitempty"` // transient lossy eras
}

// WindowSpec is one transient lossy era of a LinkSpec.
type WindowSpec struct {
	Start sim.Time     `json:"start"`
	End   sim.Time     `json:"end"`
	Drop  float64      `json:"drop"`
	Side  []sim.ProcID `json:"side,omitempty"` // partition side; empty = all links
}

// Plan materializes the sim.LinkPlan. A nil spec is the reliable-channel
// world.
func (l *LinkSpec) Plan() sim.LinkPlan {
	if l == nil {
		return sim.NoLinkFaults()
	}
	lp := sim.LinkPlan{Name: "chaos", Drop: l.Drop, Dup: l.Dup, ReorderMax: l.Reorder}
	for _, w := range l.Windows {
		lp.Windows = append(lp.Windows, sim.LossyWindow{Start: w.Start, End: w.End, Drop: w.Drop, Side: w.Side})
	}
	return lp
}

func (l *LinkSpec) String() string {
	if l == nil {
		return "reliable"
	}
	s := fmt.Sprintf("loss%.2f", l.Drop)
	if l.Dup > 0 {
		s += fmt.Sprintf("+dup%.2f", l.Dup)
	}
	if l.Reorder > 0 {
		s += fmt.Sprintf("+ro%d", l.Reorder)
	}
	if len(l.Windows) > 0 {
		s += fmt.Sprintf("+%dwin", len(l.Windows))
	}
	return s
}

// CrashSpec is one fault of a plan. With When empty it is a plain timed
// crash at At. With When set it is state-triggered: the process crashes the
// instant it enters the named dining state (via sim.Kernel.CrashWhen),
// skipping the first Skip entries — "crash the witness mid-eating-session"
// is {P: w, When: "eating"}.
type CrashSpec struct {
	P    sim.ProcID `json:"p"`
	At   sim.Time   `json:"at,omitempty"`
	When string     `json:"when,omitempty"` // hungry|eating|exiting
	Skip int        `json:"skip,omitempty"` // state entries to let pass first
}

func (c CrashSpec) String() string {
	if c.When == "" {
		return fmt.Sprintf("%d@%d", c.P, c.At)
	}
	if c.Skip > 0 {
		return fmt.Sprintf("%d@%s+%d", c.P, c.When, c.Skip)
	}
	return fmt.Sprintf("%d@%s", c.P, c.When)
}

// BudgetSpec is the serializable face of sim.Budget.
type BudgetSpec struct {
	MaxSteps  int64 `json:"max_steps,omitempty"`
	MaxEvents int64 `json:"max_events,omitempty"`
	MaxQueue  int   `json:"max_queue,omitempty"`
}

// Boxes lists the dining boxes the engine can build. The first five are the
// repository's real services ("fair" is forks with the eventual 2-fairness
// throttle); "buggy" is the planted bug: forks without the ◇P override.
func Boxes() []string { return []string{"forks", "token", "perfect", "trap", "fair", "buggy"} }

// Topologies lists the conflict-graph shapes the engine can build.
func Topologies() []string { return []string{"ring", "clique", "path", "star", "pair", "grid"} }

// Validate rejects specs the engine cannot execute, including malformed
// fault plans (satellite of the same rules sim.FaultPlan.Validate enforces).
func (s Spec) Validate() error {
	if s.N < 2 {
		return fmt.Errorf("chaos: n=%d, need at least 2 diners", s.N)
	}
	if s.Horizon < 100 {
		return fmt.Errorf("chaos: horizon %d too short", s.Horizon)
	}
	if _, err := graph.Named(s.Topology, s.N); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if s.Topology == "pair" && s.N != 2 {
		return fmt.Errorf("chaos: pair topology requires n=2, got %d", s.N)
	}
	if !knownBox(s.Box) {
		return fmt.Errorf("chaos: unknown box %q", s.Box)
	}
	if _, err := s.Delay.Policy(); err != nil {
		return err
	}
	seen := make(map[sim.ProcID]bool, len(s.Crashes))
	for _, c := range s.Crashes {
		if c.P < 0 || int(c.P) >= s.N {
			return fmt.Errorf("chaos: crash %v: process out of range 0..%d", c, s.N-1)
		}
		if seen[c.P] {
			return fmt.Errorf("chaos: crash %v: duplicate crash of process %d", c, c.P)
		}
		seen[c.P] = true
		switch c.When {
		case "":
			if c.At < 0 {
				return fmt.Errorf("chaos: crash %v: negative crash time", c)
			}
		case "hungry", "eating", "exiting":
		default:
			return fmt.Errorf("chaos: crash %v: unknown trigger state %q", c, c.When)
		}
	}
	if s.Links != nil {
		plan := s.Links.Plan()
		if err := plan.Validate(s.N); err != nil {
			return err
		}
	}
	return nil
}

func knownBox(b string) bool {
	for _, k := range Boxes() {
		if k == b {
			return true
		}
	}
	return false
}

// ID is a short human-readable identity of the spec, used in reports and
// artifact file names.
func (s Spec) ID() string {
	crashes := ""
	for i, c := range s.Crashes {
		if i > 0 {
			crashes += ","
		}
		crashes += c.String()
	}
	if crashes == "" {
		crashes = "none"
	}
	id := fmt.Sprintf("%s/%s%d/seed%d/h%d/%s/%s", s.Box, s.Topology, s.N, s.Seed, s.Horizon, s.Delay, crashes)
	if s.Links != nil {
		id += "/" + s.Links.String()
	}
	if s.Transport {
		id += "/rt"
	}
	return id
}

// MarshalIndent renders the spec as the JSON stored in repro artifacts.
func (s Spec) MarshalIndent() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }
