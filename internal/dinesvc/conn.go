package dinesvc

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockproto"
)

// session is one acquire from registry entry to release, served by its
// diner's seat after being enqueued. Its connection binding is mutable: the
// client may vanish and re-attach from a new connection mid-session.
type session struct {
	key lockproto.Key
	// regrant marks a session recovered from the WAL in granted state; its
	// seat re-wins the dining-layer grant but must not re-run the registry
	// transition. Set before enqueue, read-only afterwards.
	regrant bool
	// start stamps the acquire's arrival; the server-side grant-latency
	// histogram observes start→grant-sent. Recovered sessions carry their
	// resume time instead, which is why regrants are not observed.
	start time.Time
	// released is set once (by seat.release) when a granted session's
	// critical section is to be freed.
	released atomic.Bool

	mu      sync.Mutex
	conn    *jconn // nil while detached
	granted bool
	grantEv lockproto.Event
}

func newSession(k lockproto.Key) *session {
	return &session{key: k, start: time.Now()}
}

// attach binds the session to a connection; if the grant was already issued
// the (possibly lost) notification is re-sent on the new connection.
func (s *session) attach(jc *jconn) {
	s.mu.Lock()
	s.conn = jc
	resend := s.granted
	ev := s.grantEv
	s.mu.Unlock()
	if resend {
		jc.send(ev)
	}
}

// detach unbinds the session if it is still bound to jc (a newer connection
// may have taken over).
func (s *session) detach(jc *jconn) {
	s.mu.Lock()
	if s.conn == jc {
		s.conn = nil
	}
	s.mu.Unlock()
}

// markGranted records and sends the grant notification.
func (s *session) markGranted(ev lockproto.Event) {
	s.mu.Lock()
	s.granted = true
	s.grantEv = ev
	jc := s.conn
	s.mu.Unlock()
	if jc != nil {
		jc.send(ev)
	}
}

// notify sends ev if a connection is attached.
func (s *session) notify(ev lockproto.Event) {
	s.mu.Lock()
	jc := s.conn
	s.mu.Unlock()
	if jc != nil {
		jc.send(ev)
	}
}

// jconn is one client connection's outbound half: a self-clocking flush
// writer over the socket. Writes from the connection reader, the seats'
// acks (diner processes, or a durable table's committer), and the watch
// forwarder serialize on the writer's internal lock and never block on the
// socket; an event on an idle connection is written at once, and whatever
// arrives while that Write is in flight (grant acks interleaved with the
// suspect stream) rides the next one instead of one Write per event.
type jconn struct {
	c  net.Conn
	fw *lockproto.FlushWriter
	// attached holds the unfinished sessions this connection is bound to —
	// what its teardown must detach. Only the request loop touches it.
	attached map[lockproto.Key]*session
}

// send queues ev for the client. A writer that refuses it is dead — write
// error, closed, or a client that stopped reading (lockproto.ErrBacklog) —
// so the socket goes too: that unblocks a Write stalled on the full socket
// and ends the request loop, whose teardown detaches the connection's
// sessions onto the lease path.
func (j *jconn) send(ev lockproto.Event) bool {
	ok := j.fw.Send(&ev)
	if !ok {
		j.c.Close()
	}
	return ok
}

// newConn wraps an accepted socket.
func (s *Service) newConn(c net.Conn) *jconn {
	// Batch bound 0: lockproto's 32 KiB default, the one value ever used.
	jc := &jconn{c: c, fw: lockproto.NewFlushWriter(c, 0, 0), attached: make(map[lockproto.Key]*session)}
	// Each socket write lands in the registry as it happens, so the
	// coalescing ratio is scrapeable mid-run instead of only accumulating
	// at connection teardown.
	jc.fw.Writes, jc.fw.Events, jc.fw.Bytes = s.m.wireWrites, s.m.wireEvents, s.m.wireBytes
	return jc
}

// handleConn is the per-connection request loop. A connection is a service
// resource shared by every table: each request routes to the table hosting
// its diner, so one client can hold sessions on several tables over one
// socket.
func (s *Service) handleConn(jc *jconn) {
	c, attached := jc.c, jc.attached
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		// Write out anything still pending (the close drains) — this is how
		// a connection's last event reaches a client Drain is ending — then
		// drop the socket.
		jc.fw.Close()
		c.Close()
		// Detach, don't abandon: the sessions stay in flight so the client
		// can reconnect and resume them; the lease clock starts now.
		for k, ses := range attached {
			t := s.tableFor(k.Diner)
			ses.detach(jc)
			t.sessions.Detach(k, t.now())
		}
	}()
	gone := make(chan struct{})
	defer close(gone) // cancels the watch forwarders

	fail := func(req lockproto.Request, msg string) {
		jc.send(lockproto.Event{Ev: lockproto.EvError, Diner: req.Diner, ID: req.ID, Msg: msg})
	}

	rr := lockproto.NewRequestReader(c)
	// One request value per connection: the decoder's stdlib fallback makes
	// &req escape, so a per-iteration variable is a heap allocation per
	// request. Nothing keeps req past its iteration; Read wants it zeroed.
	var req lockproto.Request
	watching := false
	for {
		req = lockproto.Request{}
		if err := rr.Read(&req); err != nil {
			return
		}
		switch req.Op {
		case lockproto.OpInfo:
			ev := lockproto.Event{Ev: lockproto.EvInfo, Diners: s.cfg.N, T: s.now()}
			if s.cfg.Tables > 1 {
				// Omitted for a single table, so the info line stays
				// byte-identical to the pre-sharding wire format.
				ev.Tables = s.cfg.Tables
			}
			jc.send(ev)

		case lockproto.OpAcquire:
			if req.Diner < 0 || req.Diner >= s.cfg.N {
				fail(req, "no such diner")
				continue
			}
			if s.draining.Load() {
				fail(req, "draining")
				continue
			}
			t := s.tableFor(req.Diner)
			st := t.seatOf(req.Diner)
			key := lockproto.Key{Diner: req.Diner, ID: req.ID}
			now := t.now()
			switch t.sessions.Acquire(key, now) {
			case lockproto.AcquireNew:
				if s.cfg.MaxInflight > 0 && s.inFlightTotal() >= s.cfg.MaxInflight {
					t.sessions.Abort(key)
					t.m.shed.Inc()
					fail(req, "overloaded")
					continue
				}
				ses := newSession(key)
				t.sessions.Attach(key, now)
				ses.attach(jc)
				attached[key] = ses
				t.inFlight.Add(1)
				if !st.enqueue(ses) {
					t.inFlight.Add(-1)
					delete(attached, key)
					t.sessions.Abort(key)
					fail(req, "busy")
				}

			case lockproto.AcquirePending, lockproto.AcquireGranted:
				// Replay after a reconnect: re-attach. attach re-sends the
				// grant notification if it was already issued; the critical
				// section itself is never granted twice. The registry counts
				// bindings, so this Attach and the dying connection's deferred
				// Detach land safely in either order.
				ses := st.get(req.ID)
				if ses == nil {
					// Completed between the registry check and here.
					fail(req, "session expired")
					continue
				}
				if attached[key] == nil {
					t.sessions.Attach(key, now)
				}
				ses.attach(jc)
				attached[key] = ses

			case lockproto.AcquireDone:
				fail(req, "session expired")
			}

		case lockproto.OpRelease:
			if req.Diner < 0 || req.Diner >= s.cfg.N {
				fail(req, "unknown session")
				continue
			}
			t := s.tableFor(req.Diner)
			key := lockproto.Key{Diner: req.Diner, ID: req.ID}
			switch t.sessions.Release(key, t.now()) {
			case lockproto.ReleaseGranted:
				// The session is done in the registry: nothing is left for this
				// connection's teardown to detach (the ack travels through the
				// session's own binding).
				delete(attached, key)
				t.seatOf(req.Diner).release(req.ID) // EvReleased follows the exit
			case lockproto.ReleasePending:
				delete(attached, key)
				// Released before the grant: the seat unwinds silently when
				// the grant arrives; acknowledge the client now (the release
				// record first — an acked release must survive a crash).
				t.dur.after(func() {
					jc.send(lockproto.Event{Ev: lockproto.EvReleased, Diner: key.Diner, ID: key.ID, T: t.now()})
				})
			case lockproto.ReleaseDone:
				// Replayed release (the first ack was lost): re-acknowledge.
				jc.send(lockproto.Event{Ev: lockproto.EvReleased, Diner: req.Diner, ID: req.ID, T: t.now()})
			case lockproto.ReleaseUnknown:
				fail(req, "unknown session")
			}

		case lockproto.OpWatch:
			// One watch per connection: a repeat would add a subscription
			// and a forwarder per table until the socket closes, and send
			// every change once more.
			if watching {
				fail(req, "already watching")
				continue
			}
			watching = true
			// One watch subscribes to every table's feed: the snapshots
			// arrive first (each internally consistent), then one forwarder
			// per table streams its changes, all coalescing onto this
			// connection's writer.
			for _, t := range s.tables {
				if t.feed == nil {
					continue
				}
				snapshot, ch, cancel := t.feed.subscribe()
				for _, ev := range snapshot {
					jc.send(ev)
				}
				go func(ch <-chan lockproto.Event, cancel func()) {
					defer cancel()
					for {
						select {
						case ev := <-ch:
							if !jc.send(ev) {
								return
							}
						case <-gone:
							return
						case <-s.stop:
							return
						}
					}
				}(ch, cancel)
			}

		default:
			fail(req, "unknown op")
		}
	}
}
