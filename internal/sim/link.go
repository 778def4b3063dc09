package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// This file implements the fair-lossy link adversary. The base kernel models
// the paper's reliable channels; a LinkPlan weakens them to fair-lossy links:
// each message may be dropped (with probability < 1, so a message sent
// infinitely often is delivered infinitely often — the fair-loss axiom),
// duplicated, or delayed further (bounded reordering), and transient lossy
// windows model partitions whose loss rate may spike to 1 for a bounded era.
// All randomness is drawn from the kernel's seeded source, so a run under a
// LinkPlan is exactly as reproducible as one without. internal/transport
// restores the reliable-channel axioms on top of these links.

// LinkFault overrides the plan's baseline drop/duplication probabilities for
// one directed link. From or To may be -1 as a wildcard ("every sender",
// "every receiver").
type LinkFault struct {
	From ProcID  // sending process, or -1 for any
	To   ProcID  // receiving process, or -1 for any
	Drop float64 // drop probability for matching messages, in [0, 1)
	Dup  float64 // duplication probability for matching messages, in [0, 1]
}

func (f LinkFault) matches(from, to ProcID) bool {
	return (f.From == -1 || f.From == from) && (f.To == -1 || f.To == to)
}

// LossyWindow is a transient lossy era: during [Start, End) messages matching
// the window are dropped with the window's probability *in addition to* the
// steady-state loss. With Side non-empty only messages crossing between Side
// and its complement are affected — a transient lossy partition. Drop may be
// 1 here: the window is bounded, so fair-lossiness is preserved overall.
type LossyWindow struct {
	Start Time
	End   Time
	Drop  float64
	Side  []ProcID // one side of the partition; empty = every link
}

func (w LossyWindow) matches(from, to ProcID, now Time) bool {
	if now < w.Start || now >= w.End {
		return false
	}
	if len(w.Side) == 0 {
		return true
	}
	in := func(p ProcID) bool {
		for _, s := range w.Side {
			if s == p {
				return true
			}
		}
		return false
	}
	return in(from) != in(to)
}

// LinkPlan is a named, declarative description of the link adversary, the
// message-loss counterpart of FaultPlan. The zero value (and NoLinkFaults)
// is the reliable-channel world the paper assumes. Like FaultPlan, a plan is
// validated before installation so that a malformed plan in a sweep surfaces
// as a generator bug instead of silently distorting a run.
type LinkPlan struct {
	Name       string
	Drop       float64       // baseline drop probability per message, in [0, 1)
	Dup        float64       // baseline duplication probability, in [0, 1]
	ReorderMax Time          // extra per-message delay drawn from [0, ReorderMax]
	Links      []LinkFault   // per-link overrides (first match wins)
	Windows    []LossyWindow // transient lossy eras, pairwise disjoint in time
}

// NoLinkFaults is the empty plan: reliable channels.
func NoLinkFaults() LinkPlan { return LinkPlan{Name: "none"} }

// Enabled reports whether the plan perturbs any message at all.
func (lp LinkPlan) Enabled() bool {
	return lp.Drop > 0 || lp.Dup > 0 || lp.ReorderMax > 0 ||
		len(lp.Links) > 0 || len(lp.Windows) > 0
}

// Validate checks the plan against a system of n processes. Steady-state
// drop probabilities must lie in [0, 1) — a link that loses every message
// forever is not fair-lossy and would void every delivery guarantee, even
// the transport's. Duplication probabilities lie in [0, 1], reorder bounds
// are non-negative, link endpoints are -1 or in range, and lossy windows are
// well-formed and pairwise disjoint (overlapping windows would make the
// effective loss rate an accident of evaluation order).
func (lp LinkPlan) Validate(n int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("sim: link plan %q: %s", lp.Name, fmt.Sprintf(format, args...))
	}
	if lp.Drop < 0 || lp.Drop >= 1 {
		return bad("baseline drop probability %v outside [0, 1)", lp.Drop)
	}
	if lp.Dup < 0 || lp.Dup > 1 {
		return bad("baseline duplication probability %v outside [0, 1]", lp.Dup)
	}
	if lp.ReorderMax < 0 {
		return bad("negative reorder bound %d", lp.ReorderMax)
	}
	for _, f := range lp.Links {
		if f.From < -1 || int(f.From) >= n || f.To < -1 || int(f.To) >= n {
			return bad("link %d->%d has endpoints outside -1..%d", f.From, f.To, n-1)
		}
		if f.Drop < 0 || f.Drop >= 1 {
			return bad("link %d->%d drop probability %v outside [0, 1)", f.From, f.To, f.Drop)
		}
		if f.Dup < 0 || f.Dup > 1 {
			return bad("link %d->%d duplication probability %v outside [0, 1]", f.From, f.To, f.Dup)
		}
	}
	ws := append([]LossyWindow(nil), lp.Windows...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	for i, w := range ws {
		if w.Start < 0 || w.End <= w.Start {
			return bad("window [%d, %d) is not a valid era", w.Start, w.End)
		}
		if w.Drop < 0 || w.Drop > 1 {
			return bad("window [%d, %d) drop probability %v outside [0, 1]", w.Start, w.End, w.Drop)
		}
		for _, p := range w.Side {
			if p < 0 || int(p) >= n {
				return bad("window [%d, %d) side process %d out of range 0..%d", w.Start, w.End, p, n-1)
			}
		}
		if i > 0 && w.Start < ws[i-1].End {
			return bad("windows [%d, %d) and [%d, %d) overlap",
				ws[i-1].Start, ws[i-1].End, w.Start, w.End)
		}
	}
	return nil
}

// Apply validates the plan against k and installs it: from now on every
// delivery is filtered through the plan. Installing a second plan replaces
// the first.
func (lp LinkPlan) Apply(k *Kernel) error {
	if err := lp.Validate(k.N()); err != nil {
		return err
	}
	if lp.Enabled() {
		plan := lp
		k.links = &plan
	} else {
		k.links = nil
	}
	return nil
}

func (lp LinkPlan) String() string {
	var parts []string
	if lp.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%.2f", lp.Drop))
	}
	if lp.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%.2f", lp.Dup))
	}
	if lp.ReorderMax > 0 {
		parts = append(parts, fmt.Sprintf("reorder<=%d", lp.ReorderMax))
	}
	for _, f := range lp.Links {
		parts = append(parts, fmt.Sprintf("%d->%d{%.2f,%.2f}", f.From, f.To, f.Drop, f.Dup))
	}
	for _, w := range lp.Windows {
		parts = append(parts, fmt.Sprintf("[%d,%d)@%.2f", w.Start, w.End, w.Drop))
	}
	name := lp.Name
	if name == "" {
		name = "links"
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// DropProb returns the effective drop probability for a message on link
// from->to at the given time: the first matching per-link override (else the
// baseline), plus any active lossy window, saturating below 1 only for the
// steady-state part (windows may reach 1).
func (lp *LinkPlan) DropProb(from, to ProcID, now Time) float64 {
	p := lp.Drop
	for _, f := range lp.Links {
		if f.matches(from, to) {
			p = f.Drop
			break
		}
	}
	for _, w := range lp.Windows {
		if w.matches(from, to, now) {
			// Combine independently: lost if either the steady-state loss or
			// the window loss eats it.
			p = p + w.Drop - p*w.Drop
			break
		}
	}
	return p
}

// DupProb returns the duplication probability for link from->to.
func (lp *LinkPlan) DupProb(from, to ProcID) float64 {
	for _, f := range lp.Links {
		if f.matches(from, to) {
			return f.Dup
		}
	}
	return lp.Dup
}

// Arrive is the plan's arrival-time decision for one message on link
// from->to at time now: drop it, or deliver it and, when dupAfter > 0, a
// second copy dupAfter ticks (in [1, 8]) later. The draws come from rng in a
// fixed order — drop (only when DropProb > 0), then duplicate (only for a
// survivor, and only when DupProb > 0), then the duplicate's lag — so a
// direction's fault sequence is a function of its stream and its message
// count. The kernel, live.Runtime and livechaos.Proxy all decide here.
func (lp *LinkPlan) Arrive(rng *rand.Rand, from, to ProcID, now Time) (drop bool, dupAfter Time) {
	if p := lp.DropProb(from, to, now); p > 0 && rng.Float64() < p {
		return true, 0
	}
	if p := lp.DupProb(from, to); p > 0 && rng.Float64() < p {
		// The duplicate is a second, independent delivery of the same wire
		// message a little later; it is not duplicated again.
		return false, 1 + Time(rng.Int63n(8))
	}
	return false, 0
}

// reorderExtra draws the adversary's extra in-transit delay for one message.
func (k *Kernel) reorderExtra() Time {
	if k.links == nil || k.links.ReorderMax <= 0 {
		return 0
	}
	return Time(k.rng.Int63n(int64(k.links.ReorderMax) + 1))
}

// linkArrive is the delivery-time firing point of the link adversary: the
// message is dropped or duplicated here, with counters and a trace event per
// perturbation, before the surviving copy reaches the normal delivery path.
func (k *Kernel) linkArrive(e *event) {
	lp := k.links
	if lp == nil {
		k.deliver(e)
		return
	}
	from, to := ProcID(e.from), ProcID(e.to)
	drop, dupAfter := lp.Arrive(k.rng, from, to, k.now)
	if drop {
		k.inFlight--
		k.droppedLink++
		k.Emit(Record{P: to, Kind: KindLink, Peer: from, Inst: k.portSent[e.port].prefix, Note: "drop"})
		return
	}
	if dupAfter > 0 {
		k.linkDuped++
		k.Emit(Record{P: to, Kind: KindLink, Peer: from, Inst: k.portSent[e.port].prefix, Note: "dup"})
		k.inFlight++
		// evDeliver (not evArrive): the duplicate must bypass the adversary so
		// it is not dropped or duplicated again.
		dup := *e
		dup.kind = evDeliver
		k.scheduleEvent(k.now+dupAfter, &dup)
	}
	k.deliver(e)
}
