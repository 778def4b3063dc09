package live

import (
	"sync"
	"sync/atomic"

	"repro/internal/rt"
)

// Bus carries inter-process messages for a live runtime. The runtime calls
// Send for every outbound message; the bus routes it — directly back into
// this runtime for local destinations, over the wire for remote ones — and
// hands inbound messages to the delivery sink installed with Bind.
//
// Delivery guarantees are the bus's own: the channel bus is reliable, the
// TCP bus is reliable per connection but drops messages for unreachable
// peers, and livechaos.ChaosBus deliberately isn't — layer internal/transport
// on the runtime (transport.Enable) to rebuild reliable channels above a
// lossy bus.
type Bus interface {
	// Bind installs the local delivery sink. The runtime calls it once,
	// before Start; the bus must not invoke deliver before Bind returns.
	Bind(deliver func(rt.Message))
	// Send routes one message. It must not block indefinitely; messages
	// that cannot be routed are dropped (fair-lossy semantics).
	Send(m rt.Message)
	// Close releases bus resources; subsequent Sends are dropped.
	Close() error
}

// BusStats is the delivery-counter view a bus can expose for observability:
// how many messages it handed onward, ate, duplicated, or delayed. Buses
// that keep these counters implement StatsSource; consumers (dineserve's
// metrics registry) sample them at scrape time, so the counters must be
// cheap enough to maintain on every Send.
type BusStats struct {
	Delivered int64 // messages handed to the delivery sink / inner bus
	Dropped   int64 // messages eaten (loss, unroutable peer, encode failure)
	Duped     int64 // extra deliveries injected by a fault plan
	Delayed   int64 // deliveries the fault plan held back before forwarding
}

// StatsSource is implemented by buses that maintain BusStats counters.
type StatsSource interface {
	BusStats() BusStats
}

// ChanBus is the in-process bus: every process is local, and Send hands the
// message straight to the runtime's delivery sink (which enqueues it on the
// destination's mailbox — the channel hop every real message takes).
type ChanBus struct {
	mu        sync.RWMutex
	deliver   func(rt.Message)
	closed    bool
	delivered atomic.Int64
}

// NewChanBus returns the in-process bus.
func NewChanBus() *ChanBus { return &ChanBus{} }

// Bind implements Bus.
func (b *ChanBus) Bind(deliver func(rt.Message)) {
	b.mu.Lock()
	b.deliver = deliver
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
	b.delivered.Add(1)
	deliver(m)
}

// BusStats implements StatsSource.
func (b *ChanBus) BusStats() BusStats {
	return BusStats{Delivered: b.delivered.Load()}
}

// Close implements Bus.
func (b *ChanBus) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return nil
}
