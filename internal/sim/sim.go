// Package sim provides a deterministic discrete-event simulation kernel for
// asynchronous message-passing distributed systems with crash faults.
//
// The execution model follows the technical framework of Sastry, Pike and
// Welch (SPAA 2009/2010): a finite set of processes execute atomic steps; in
// each step a process may receive a message, make a state transition, and
// send messages. Processes are connected by reliable, non-FIFO channels:
// every message sent to a live process is eventually delivered, and messages
// are neither lost, duplicated, nor corrupted. (A LinkPlan — see link.go —
// optionally weakens the channels to fair-lossy links that drop, duplicate,
// and reorder; internal/transport rebuilds the reliable-channel axioms on
// top of them.) Message delay, relative
// process speed, and scheduling are controlled by a seeded adversary, so a
// run is fully reproducible from (program, fault schedule, delay policy,
// seed). A conceptual discrete global clock (virtual time) orders events but
// is inaccessible to protocol code except through explicit timers.
//
// Protocol code is written as guarded-command action systems, matching the
// paper's presentation: each process owns a set of actions, each with a
// Guard (a side-effect-free predicate over the process's local state) and a
// Body (the atomic state transition, which may send messages). The kernel
// guarantees weak fairness: an action whose guard is continuously enabled at
// a live process is eventually executed.
//
// The model vocabulary (Time, ProcID, Message, Record, …) lives in
// internal/rt and is aliased here; the Kernel is one implementation of
// rt.Runtime, the interface protocol modules are written against. The other
// is internal/live, which executes the same protocol code in real time.
package sim

import "repro/internal/rt"

// Time is discrete virtual time in ticks. The global clock is a modeling
// device only; protocol code must not branch on absolute times except via
// explicit timers (e.g. heartbeat intervals), or in a guard that time can
// only turn false (rt.Runtime's guard clause).
type Time = rt.Time

// ProcID identifies a process. Processes are numbered 0..N-1.
type ProcID = rt.ProcID

// Never is a sentinel Time meaning "does not happen".
const Never = rt.Never

// KindLink is the Record kind emitted by the fair-lossy link adversary when
// it perturbs a message (Note is "drop" or "dup", Peer the sender, Inst the
// port prefix of the affected message).
const KindLink = "link"

// Message is a single protocol message in transit between two processes.
type Message = rt.Message

// Record is a structured trace record emitted by the kernel and by protocol
// modules. Checkers reconstruct runs (eating intervals, suspicion history,
// crash times) purely from the record stream.
type Record = rt.Record

// Tracer receives every Record emitted during a run.
type Tracer = rt.Tracer

// Handler processes one delivered message as part of an atomic step.
type Handler = rt.Handler

// Action is one guarded command of a process's action system.
type Action = rt.Action

// The Kernel is the simulation-side implementation of the protocol-facing
// runtime interface.
var _ rt.Runtime = (*Kernel)(nil)
