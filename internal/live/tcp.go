package live

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/metrics"
	"repro/internal/rt"
)

// TCPBus routes messages between live runtimes on different nodes over
// length-prefixed TCP connections (the wire codec in wire.go). Each node
// hosts a subset of the system's processes; messages to local processes are
// delivered in-process, messages to a process homed on a peer travel over
// that peer's connection, and every connection is read for inbound frames
// regardless of who dialed whom.
//
// Connection loss makes the affected routes fair-lossy (sends are dropped
// until re-registered); protocols in this repository tolerate that by
// design — retransmitting requests, periodic heartbeats — and the reliable
// transport can be layered on top for exactly-once delivery besides.
type TCPBus struct {
	mu      sync.Mutex
	deliver func(rt.Message)
	local   map[rt.ProcID]bool
	routes  map[rt.ProcID]*peerConn
	conns   []*peerConn
	ln      net.Listener
	closed  bool
	wg      sync.WaitGroup

	delivered *metrics.Counter // frames handed to the local delivery sink
	dropped   *metrics.Counter // sends eaten: unroutable peer, encode or write failure
}

// peerConn is one TCP connection with serialized frame writes.
type peerConn struct {
	c  net.Conn
	mu sync.Mutex
}

func (pc *peerConn) writeFrame(body []byte) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return WriteFrame(pc.c, body)
}

// NewTCPBus returns a bus for a node hosting the given local processes.
func NewTCPBus(local []rt.ProcID) *TCPBus {
	b := &TCPBus{
		local:  make(map[rt.ProcID]bool, len(local)),
		routes: make(map[rt.ProcID]*peerConn),
	}
	for _, p := range local {
		b.local[p] = true
	}
	return b
}

// Bind implements Bus.
func (b *TCPBus) Bind(deliver func(rt.Message), counter func(name string) *metrics.Counter) {
	b.mu.Lock()
	b.deliver, b.delivered, b.dropped = deliver, counter("bus.delivered"), counter("bus.dropped")
	b.mu.Unlock()
}

// Listen accepts peer connections on addr (e.g. "127.0.0.1:0") and serves
// inbound frames from them. It returns the bound address for peers to Dial.
func (b *TCPBus) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.ln = ln
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			b.addConn(c, nil)
		}
	}()
	return ln.Addr(), nil
}

// Dial connects to a peer node and routes messages addressed to the given
// processes over that connection.
func (b *TCPBus) Dial(addr string, procs []rt.ProcID) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	b.addConn(c, procs)
	return nil
}

// addConn registers a connection, optionally as the route for procs, and
// starts its read loop. A frame arriving for a process homed here is
// delivered; its sender's connection also becomes the return route for the
// frame's source process, so listeners learn routes from traffic and need
// no static peer table.
func (b *TCPBus) addConn(c net.Conn, procs []rt.ProcID) {
	pc := &peerConn{c: c}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		c.Close()
		return
	}
	b.conns = append(b.conns, pc)
	for _, p := range procs {
		b.routes[p] = pc
	}
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.readLoop(pc)
	}()
}

func (b *TCPBus) readLoop(pc *peerConn) {
	for {
		body, err := ReadFrame(pc.c)
		if err != nil {
			pc.c.Close()
			return
		}
		m, err := DecodeMessage(body)
		if err != nil {
			continue // malformed frame: drop, keep the connection
		}
		b.mu.Lock()
		if _, known := b.routes[m.From]; !known && !b.local[m.From] {
			b.routes[m.From] = pc // learned return route
		}
		deliver, isLocal := b.deliver, b.local[m.To]
		b.mu.Unlock()
		if isLocal && deliver != nil {
			b.delivered.Inc()
			deliver(m)
		}
	}
}

// Send implements Bus: local destinations deliver in-process, remote ones
// are framed onto their route's connection. Unroutable or unencodable
// messages are dropped (fair-lossy).
func (b *TCPBus) Send(m rt.Message) {
	b.mu.Lock()
	deliver, isLocal, route, closed := b.deliver, b.local[m.To], b.routes[m.To], b.closed
	b.mu.Unlock()
	if closed {
		return
	}
	if isLocal {
		if deliver != nil {
			b.delivered.Inc()
			deliver(m)
		}
		return
	}
	if route == nil {
		b.dropped.Inc()
		return
	}
	body, err := EncodeMessage(m)
	if err != nil {
		b.dropped.Inc()
		return
	}
	if err := route.writeFrame(body); err != nil {
		b.dropped.Inc()
		route.c.Close()
	}
}

// Close implements Bus.
func (b *TCPBus) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	ln, conns := b.ln, b.conns
	b.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, pc := range conns {
		pc.c.Close()
	}
	b.wg.Wait()
	return nil
}

// String aids debugging.
func (b *TCPBus) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return fmt.Sprintf("tcpbus(local=%d routes=%d conns=%d)", len(b.local), len(b.routes), len(b.conns))
}
