package live

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/rt"
)

// Bus carries inter-process messages for a live runtime. The runtime calls
// Send for every outbound message; the bus hands it, now, later or never, to
// the delivery sink installed with Bind. A bus counts what it does with
// messages — "bus.delivered", and a fault-injecting bus "bus.dropped",
// "bus.duped", "bus.delayed", "bus.partitioned" — in the binding runtime's
// counter table, read with Runtime.Counter.
//
// Delivery guarantees are the bus's own: the channel bus is reliable, and
// livechaos.ChaosBus deliberately isn't — layer internal/transport on the
// runtime (transport.Enable) to rebuild reliable channels above a lossy bus.
type Bus interface {
	// Bind installs the local delivery sink and hands the bus the runtime's
	// counter table, from which it resolves its handles. The runtime calls
	// it once, before Start; the bus must not invoke deliver before Bind
	// returns. A wrapping bus passes both on to the bus it wraps.
	Bind(deliver func(rt.Message), counter func(name string) *metrics.Counter)
	// Send routes one message. It must not block indefinitely; messages
	// that cannot be routed are dropped (fair-lossy semantics).
	Send(m rt.Message)
	// Close releases bus resources; subsequent Sends are dropped.
	Close() error
}

// ChanBus is the in-process bus: every process is local, and Send hands the
// message straight to the runtime's delivery sink (which enqueues it on the
// destination's mailbox — the channel hop every real message takes).
type ChanBus struct {
	mu        sync.RWMutex
	deliver   func(rt.Message)
	closed    bool
	delivered *metrics.Counter
}

// NewChanBus returns the in-process bus.
func NewChanBus() *ChanBus { return &ChanBus{} }

// Bind implements Bus.
func (b *ChanBus) Bind(deliver func(rt.Message), counter func(name string) *metrics.Counter) {
	b.mu.Lock()
	b.deliver, b.delivered = deliver, counter("bus.delivered")
	b.mu.Unlock()
}

// Send implements Bus.
func (b *ChanBus) Send(m rt.Message) {
	b.mu.RLock()
	deliver, closed := b.deliver, b.closed
	b.mu.RUnlock()
	if closed || deliver == nil {
		return
	}
	b.delivered.Inc()
	deliver(m)
}

// Close implements Bus.
func (b *ChanBus) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return nil
}
