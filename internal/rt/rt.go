// Package rt defines the execution-model vocabulary shared by every protocol
// module in this repository — processes, virtual time, messages and the
// ports they travel on, trace records, guarded actions — and the Runtime
// interface that abstracts over how protocol code is executed. Ports are
// interned rt.Port values (PortOf), which every runtime resolves to its
// handlers by index. It also holds the one scheduling rule both
// runtimes share: Actions, the weakly fair rotation each steps a process's
// guarded actions by.
//
// Two runtimes implement the interface:
//
//   - internal/sim.Kernel: the deterministic single-threaded discrete-event
//     simulator. Virtual time is a modeling device, scheduling and delays
//     come from a seeded adversary, and a run is exactly reproducible from
//     (program, fault schedule, delay policy, seed). This is the runtime the
//     proofs, checkers, chaos campaigns and experiments use.
//
//   - internal/live.Runtime: the real-time runtime. Each process is a
//     goroutine with its own mailbox, timers are wall-clock, and messages
//     travel over in-process channels, through the same link adversary as the
//     kernel's when one is installed. Runs are not reproducible — the
//     scheduler is the operating system — but the trace vocabulary is
//     identical, so the same checkers validate live runs.
//
// A runtime may also sit on another: internal/transport.Reliable embeds
// either runtime and overrides only Send and Handle, rebuilding reliable
// channels over its lossy links for the modules wired on it; Paced embeds
// either and overrides only AddAction, giving the action cycles wired on it
// a tempo of one step per tick.
//
// Protocol packages (internal/detector, internal/dining and its tables,
// internal/core) are written against Runtime only; they cannot tell which
// runtime is executing them. That is the point: the code whose properties
// were model-checked in the simulator is byte-for-byte the code that serves
// real traffic.
package rt

import (
	"fmt"
	"math/rand"
)

// Time is discrete time in ticks. In the simulator ticks are virtual and
// advanced by the event loop; in the live runtime one tick is a configured
// wall-clock duration. Protocol code must not branch on absolute times
// except via explicit timers (e.g. heartbeat intervals), or in a guard that
// time can only turn false (Runtime's guard clause).
type Time int64

// ProcID identifies a process. Processes are numbered 0..N-1.
type ProcID int

// Never is a sentinel Time meaning "does not happen".
const Never Time = -1

// Message is a single protocol message in transit between two processes.
// Port routes the message to the handler registered under the same port at
// the destination; a runtime delivers it as the interned Port (see PortOf),
// whichever form the sender used.
type Message struct {
	From    ProcID
	To      ProcID
	Port    Port
	Payload any
}

func (m Message) String() string {
	return fmt.Sprintf("%d->%d %s %v", m.From, m.To, m.Port, m.Payload)
}

// Record is a structured trace record emitted by the runtime and by protocol
// modules. Checkers reconstruct runs (eating intervals, suspicion history,
// crash times) purely from the record stream.
type Record struct {
	T    Time   // time of the event, in ticks
	Seq  int64  // global sequence number (total order tie-break)
	P    ProcID // process the event happened at
	Kind string // event kind, e.g. "state", "suspect", "trust", "crash"
	Peer ProcID // peer process, when relevant (else -1)
	Inst string // instance name (table, oracle, module), when relevant
	Note string // free-form detail, e.g. the new dining state
}

// Tracer receives every Record emitted during a run.
type Tracer interface {
	Trace(Record)
}

// Handler processes one delivered message as part of an atomic step.
type Handler func(Message)

// Runtime is the execution substrate protocol modules are written against.
// It is the exact surface the protocol layer needs — registration of guarded
// actions and message handlers, sending, local timers, a clock, tracing, a
// random source, and crash ground truth — and nothing more; runtime-specific
// control (running the simulation, starting goroutines, fault injection)
// stays on the concrete types.
//
// Execution contract, common to all implementations:
//
//   - Steps of one process are serialized: at any process, at most one of
//     its action bodies, handlers, or timer callbacks runs at a time, so
//     process-local state needs no locking.
//   - Weak fairness: an action whose guard is continuously enabled at a
//     live process is eventually executed.
//   - Guards must be side-effect-free predicates, and a runtime may judge
//     them at any moment: the kernel judges a process's guards at each
//     wake-up of the process and queues a step only if one holds. So a
//     guard reads only what cannot turn it true unseen: its process's
//     state, which changes only in that process's own handlers, timers and
//     actions; the crash ground truth (Crashed), on whose every change the
//     kernel re-judges every process; and the clock (Now) only where a
//     timer at the process marks when the guard can turn true (Paced's
//     gate) or where time can only turn it false (the trap box's mistake
//     era). Bodies are atomic steps that may send messages.
//   - Channels are reliable but non-FIFO: every message sent to a correct
//     process is eventually delivered, possibly out of order.
//
// internal/rt/rttest checks this contract, each clause written once, on the
// kernel, the live runtime, and transport.Reliable and Paced over each; a
// new runtime, or a shared core under these, must pass it.
type Runtime interface {
	// N returns the number of processes.
	N() int
	// Now returns the current time in ticks.
	Now() Time
	// Rand returns the runtime's random source. In the simulator this is
	// the seeded deterministic source (all protocol randomness must come
	// from here to keep runs reproducible); the live runtime returns a
	// concurrency-safe source.
	Rand() *rand.Rand
	// Crashed reports whether p has crashed (ground truth; only
	// fault-schedule-aware oracles may consult this).
	Crashed(p ProcID) bool
	// AddAction registers a guarded action at process p. name is a label
	// (Action.Name) that no runtime reads.
	AddAction(p ProcID, name string, guard func() bool, body func())
	// Handle registers the message handler for the given port at process p.
	// Registering twice for the same port is a programming error.
	Handle(p ProcID, port Port, h Handler)
	// Send transmits a message to process `to`; the handler registered for
	// port at the destination receives it as an atomic step.
	Send(from, to ProcID, port Port, payload any)
	// After schedules fn to run at process p after d ticks (a local timer).
	// The timer is discarded if p has crashed by then.
	After(p ProcID, d Time, fn func())
	// Emit records a trace event, stamping it with the current time and a
	// fresh sequence number.
	Emit(r Record)
}
