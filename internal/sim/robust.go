package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
)

// This file holds the kernel's robustness hooks: state-predicate-triggered
// crashes, the step/event budget watchdog that converts livelock into a
// structured diagnostic, and panic recovery for running untrusted protocol
// boxes. They exist for the chaos campaign engine (internal/chaos), which
// needs an adversary that can strike at protocol-chosen worst moments and a
// harness that survives whatever the protocol under test does in response.

// tailCap bounds the kernel's always-on ring buffer of recent trace records,
// which diagnostics attach as the "what was happening" context.
const tailCap = 48

// trigger is one pending state-predicate crash.
type trigger struct {
	p    ProcID
	why  string
	pred func() bool
}

// CrashWhen arms a state-triggered crash: after every subsequent event, pred
// is evaluated, and the first time it returns true process p crashes on the
// spot (same semantics as CrashAt: no further steps, deliveries, or timers).
// pred must be a side-effect-free predicate over observable protocol state;
// why labels the crash record's Note for diagnostics. The trigger is
// one-shot and is discarded once fired or once p crashes for another reason.
//
// This is the adversary's scalpel: "crash the witness the instant it starts
// eating" is CrashWhen(w, "mid-eating", func() bool { return d.State() ==
// dining.Eating }) — no tuning of CrashAt times against a seed required.
func (k *Kernel) CrashWhen(p ProcID, why string, pred func() bool) {
	k.triggers = append(k.triggers, &trigger{p: p, why: why, pred: pred})
}

// fireTriggers evaluates armed triggers and crashes the processes whose
// predicates hold. Fired and obsolete triggers are removed.
func (k *Kernel) fireTriggers() {
	kept := k.triggers[:0]
	for _, tr := range k.triggers {
		if k.procs[tr.p].crashed {
			continue
		}
		if tr.pred() {
			k.crashNow(tr.p, tr.why)
			continue
		}
		kept = append(kept, tr)
	}
	k.triggers = kept
}

// Budget bounds a run's resource usage. Zero fields are unlimited. The
// watchdog exists because a horizon alone cannot distinguish "converged and
// quiet" from "livelocked at full speed": a protocol spinning through
// enabled actions or flooding the network burns its budget long before the
// horizon, and the kernel then stops the run with a diagnostic instead of
// grinding on.
type Budget struct {
	MaxSteps  int64 // protocol actions executed (the "steps" counter)
	MaxEvents int64 // total events processed (deliveries, timers, steps)
	MaxQueue  int   // pending event-queue length (runaway self-amplification)
}

// SetBudget installs (or replaces) the run budget. Exceeding it stops the
// run at the end of the offending event and records a BudgetExceeded
// diagnostic retrievable via Exhausted.
func (k *Kernel) SetBudget(b Budget) {
	k.budget = b
	k.budgetAt = 0 // check after the next event, against the new limits
}

// Events returns the number of events processed so far — deliveries, timers
// and steps — the count MaxEvents bounds.
func (k *Kernel) Events() int64 { return k.events }

// Exhausted returns the watchdog diagnostic if the budget was exceeded, else
// nil.
func (k *Kernel) Exhausted() *BudgetExceeded { return k.exhausted }

// BudgetExceeded is the watchdog's structured diagnostic: which limit broke,
// the counters at that moment, and the tail of the trace leading up to it.
type BudgetExceeded struct {
	Reason   string   // which limit was exceeded, with limit and actual
	Steps    int64    // protocol steps executed so far
	Events   int64    // events processed so far
	QueueLen int      // event-queue length at the breach
	At       Time     // virtual time of the breach
	Tail     []Record // recent trace records (up to tailCap), oldest first
}

// Error implements error.
func (b *BudgetExceeded) Error() string {
	return fmt.Sprintf("sim: watchdog at t=%d: %s (steps=%d events=%d queue=%d)",
		b.At, b.Reason, b.Steps, b.Events, b.QueueLen)
}

// Diagnostic renders the full report including the trace tail.
func (b *BudgetExceeded) Diagnostic() string {
	var s strings.Builder
	s.WriteString(b.Error())
	s.WriteString("\ntrace tail:")
	for _, r := range b.Tail {
		fmt.Fprintf(&s, "\n  t=%-6d p=%-3d %-8s peer=%-3d %s %s", r.T, r.P, r.Kind, r.Peer, r.Inst, r.Note)
	}
	return s.String()
}

// checkBudget stops the run with a diagnostic if any limit is exceeded, and
// otherwise sets budgetAt to the first event count at which a step or event
// limit could be exceeded. The loop calls it only then, or when the queue
// limit is exceeded, and the watchdog still trips on exactly the event it
// would trip on if it ran after every event: the loop counts one event per
// event and the kernel at most one step per event (a step event runs one
// action), so with steps ≤ MaxSteps now, steps cannot pass MaxSteps before
// events has grown by MaxSteps+1−steps, nor events pass MaxEvents before it
// reaches MaxEvents+1.
func (k *Kernel) checkBudget() {
	b, steps := k.budget, k.steps
	var reason string
	switch {
	case b.MaxSteps > 0 && steps > b.MaxSteps:
		reason = fmt.Sprintf("step budget exceeded (%d > %d): livelock suspected", steps, b.MaxSteps)
	case b.MaxEvents > 0 && k.events > b.MaxEvents:
		reason = fmt.Sprintf("event budget exceeded (%d > %d): livelock suspected", k.events, b.MaxEvents)
	case b.MaxQueue > 0 && k.queue.Len() > b.MaxQueue:
		reason = fmt.Sprintf("event queue exceeded %d entries (%d): runaway scheduling", b.MaxQueue, k.queue.Len())
	default:
		k.budgetAt = math.MaxInt64
		if b.MaxSteps > 0 {
			k.budgetAt = k.events + b.MaxSteps + 1 - steps
		}
		if b.MaxEvents > 0 {
			k.budgetAt = min(k.budgetAt, b.MaxEvents+1)
		}
		return
	}
	k.exhausted = &BudgetExceeded{
		Reason:   reason,
		Steps:    steps,
		Events:   k.events,
		QueueLen: k.queue.Len(),
		At:       k.now,
		Tail:     k.Tail(),
	}
	k.stopped = true
}

// Tail returns the most recent trace records (up to tailCap), oldest first.
// The tail is recorded even when no Tracer is attached, so diagnostics always
// have context.
func (k *Kernel) Tail() []Record {
	if len(k.tail) == 0 {
		return nil
	}
	if k.tailLen < int64(len(k.tail)) {
		return append([]Record(nil), k.tail[:k.tailLen]...)
	}
	out := make([]Record, 0, len(k.tail))
	start := int(k.tailLen % int64(len(k.tail)))
	out = append(out, k.tail[start:]...)
	out = append(out, k.tail[:start]...)
	return out
}

// RunFailure describes why a protected run did not complete normally: a
// protocol panic (with stack), a watchdog budget breach, or both fields nil
// never occurs — RunProtected returns nil instead.
type RunFailure struct {
	Panic    any             // recovered panic value, if the run panicked
	Stack    string          // goroutine stack at the panic
	Watchdog *BudgetExceeded // watchdog diagnostic, if the budget broke
	At       Time            // virtual time of the failure
	Tail     []Record        // recent trace records, oldest first
}

// Error implements error.
func (f *RunFailure) Error() string {
	if f.Panic != nil {
		return fmt.Sprintf("sim: protocol panic at t=%d: %v", f.At, f.Panic)
	}
	if f.Watchdog != nil {
		return f.Watchdog.Error()
	}
	return "sim: run failure"
}

// RunProtected executes the simulation like Run, but converts protocol
// panics and watchdog breaches into a structured RunFailure instead of
// crashing the caller. A nil failure means the run completed (quiescence or
// horizon). The kernel must not be reused after a panic: protocol state may
// be torn mid-step.
func (k *Kernel) RunProtected(horizon Time) (end Time, fail *RunFailure) {
	defer func() {
		if r := recover(); r != nil {
			end = k.now
			fail = &RunFailure{
				Panic: r,
				Stack: string(debug.Stack()),
				At:    k.now,
				Tail:  k.Tail(),
			}
		}
	}()
	end = k.Run(horizon)
	if k.exhausted != nil {
		fail = &RunFailure{Watchdog: k.exhausted, At: k.exhausted.At, Tail: k.exhausted.Tail}
	}
	return end, fail
}
