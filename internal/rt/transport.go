package rt

import "repro/internal/metrics"

// SendHook intercepts protocol-level sends (see TransportRuntime). Returning
// true means the hook consumed the message and will arrange its delivery
// itself (typically by re-sending wrapped envelopes through RawSend);
// returning false lets the runtime transmit it directly.
type SendHook func(Message) bool

// TransportRuntime is the extended runtime surface a transport layer needs
// to interpose on a system's messaging: hooking protocol sends, shipping its
// own wire envelopes underneath the hook, handing restored messages to the
// handlers the protocol registered, and accounting. Both runtimes implement
// it (internal/sim and internal/live, each over its own link adversary).
type TransportRuntime interface {
	Runtime
	// SetSendHook installs (or, with nil, removes) a send interceptor: every
	// protocol-level Send is offered to the hook before transmission.
	SetSendHook(h SendHook)
	// RawSend transmits directly on the underlying links/bus, bypassing any
	// installed SendHook.
	RawSend(from, to ProcID, port string, payload any)
	// Dispatch delivers m to the handler registered for m.Port at m.To, as
	// an atomic step of the destination process. In the simulator delivery
	// is synchronous; in the live runtime it is queued onto the
	// destination's mailbox.
	Dispatch(m Message)
	// CounterHandle resolves a named runtime counter (e.g. "transport.sent")
	// in the runtime's own registry. It is a wiring-time lookup: keep the
	// handle and Add to it on the message path.
	CounterHandle(name string) *metrics.Counter
}
