package dinesvc

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockproto"
)

// TestVanishedClientDoesNotLeakDrain is the regression test for the
// handleConn teardown audit: a client that disconnects *between* receiving
// its grant and acknowledging the release exercises the detach path while
// the manager still owns the session. The connection teardown must detach —
// not abandon — the session: it stays in flight on the lease clock, the
// janitor force-releases it when the lease runs out, and a subsequent drain
// completes with zero sessions in flight and conserved accounting. Before
// the audit this was the suspected leak shape (a detached-but-granted
// session wedging Drain until its timeout).
func TestVanishedClientDoesNotLeakDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server; skipped in -short")
	}
	svc, err := New(Config{
		N: 3, Topology: "ring",
		Tick: time.Millisecond, HBTimeout: 2000,
		Lease: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cl := dialBench(t, ln.Addr().String())
	if err := lockproto.WriteRequest(cl.c, &lockproto.Request{Op: lockproto.OpAcquire, Diner: 0, ID: "leak"}); err != nil {
		t.Fatal(err)
	}
	cl.await(t, lockproto.EvGranted, "leak")
	// Vanish while holding the critical section: no release, no close
	// handshake — the deferred teardown in handleConn is all that runs.
	cl.c.Close()

	// The janitor must reclaim the session once the lease expires; poll well
	// past lease + janitor cadence before calling it a leak.
	deadline := time.Now().Add(5 * time.Second)
	for svc.inFlightTotal() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if left := svc.inFlightTotal(); left != 0 {
		t.Fatalf("vanished client leaked %d in-flight sessions past its lease", left)
	}

	svc.Drain(2 * time.Second)

	tbl := svc.tableFor(0)
	granted := tbl.m.granted.Value()
	regranted := tbl.m.regranted.Value()
	released := tbl.m.released.Value()
	expired := tbl.m.expired.Value()
	held := tbl.m.held.Value()
	if granted != 1 || expired != 1 {
		t.Fatalf("granted=%d expired=%d, want 1/1 (the janitor must have reclaimed the grant)",
			granted, expired)
	}
	// The e2e scenarios' conservation invariant: every grant is eventually
	// released, nothing is held after drain.
	if held != 0 || granted+regranted != released+held {
		t.Fatalf("accounting leak: granted=%d regranted=%d released=%d held=%d",
			granted, regranted, released, held)
	}
	if err := svc.Verdict(); err != nil {
		t.Fatalf("verdict after forced release: %v", err)
	}
}

// TestDrainWaitsForJanitor is the regression test for the shutdown race the
// benchmark harness hit on 2 of 5 durable runs: Drain closed a table's WAL
// while that table's janitor was still inside a pass, the janitor's clock
// record hit "append on closed store", and Fatalf killed a healthy process
// on its way out. Every cycle boots a durable table, serves one grant —
// leaving the session held on an open connection, so the handler's teardown
// journals a detach during the drain too — and drains at once; no cycle may
// reach Fatalf.
func TestDrainWaitsForJanitor(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server per cycle; skipped in -short")
	}
	var fatal atomic.Pointer[string]
	for cycle := 0; cycle < 24; cycle++ {
		svc, err := New(Config{
			N: 3, Topology: "ring",
			Tick: 200 * time.Microsecond, HBTimeout: 2000,
			DataDir: t.TempDir(), Fsync: "never",
			Fatalf: func(format string, args ...any) {
				msg := fmt.Sprintf(format, args...)
				fatal.Store(&msg)
				runtime.Goexit() // Fatalf must not return; fail the test, not the binary
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl := dialBench(t, ln.Addr().String())
		id := fmt.Sprintf("j-%d", cycle)
		if err := lockproto.WriteRequest(cl.c, &lockproto.Request{Op: lockproto.OpAcquire, Diner: 0, ID: id}); err != nil {
			t.Fatal(err)
		}
		cl.await(t, lockproto.EvGranted, id)
		// Spread the drains over the janitor's 50 ms cadence, so some of
		// them land while a pass is in flight.
		time.Sleep(time.Duration(cycle%8) * 7 * time.Millisecond)
		svc.Drain(0)
		cl.c.Close()
		if msg := fatal.Load(); msg != nil {
			t.Fatalf("cycle %d: Fatalf fired during a clean drain: %s", cycle, *msg)
		}
	}
}

// TestStalledClientIsCutOff: a client that keeps requesting but never reads
// its replies stalls the server's socket writes; the connection's flush
// buffer must stop at lockproto's backlog bound instead of growing with every
// reply, and the server must drop the connection — after which the client's
// granted session is detached, expires on its lease and the table drains.
func TestStalledClientIsCutOff(t *testing.T) {
	stallAndExpectCutOff(t, bytes.Repeat([]byte(`{"op":"info"}`+"\n"), 4096))
}

// TestStalledIdleClientIsCutOff is TestStalledClientIsCutOff on the
// reader's own write path: the client sends one request per Write, so the
// server's reader often finds its window empty after a request and writes
// the reply itself. That write must never block on the full socket.
func TestStalledIdleClientIsCutOff(t *testing.T) {
	stallAndExpectCutOff(t, []byte(`{"op":"info"}`+"\n"))
}

// stallAndExpectCutOff takes a grant, stops reading and writes payload, a
// run of info requests, until the server hangs up; then the client's
// session must expire on its lease. Every info request costs the server one
// queued reply: socket buffers absorb the first few MiB, the flush writer
// the next 8. A server that stops reading without hanging up shows as a
// write that times out.
func stallAndExpectCutOff(t *testing.T, payload []byte) {
	t.Helper()
	if testing.Short() {
		t.Skip("boots a full server; skipped in -short")
	}
	svc, err := New(Config{
		N: 3, Topology: "ring",
		Tick: time.Millisecond, HBTimeout: 2000,
		Lease: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(2 * time.Second)

	cl := dialBench(t, ln.Addr().String())
	defer cl.c.Close()
	if err := lockproto.WriteRequest(cl.c, &lockproto.Request{Op: lockproto.OpAcquire, Diner: 0, ID: "stall"}); err != nil {
		t.Fatal(err)
	}
	cl.await(t, lockproto.EvGranted, "stall")

	cl.c.SetWriteDeadline(time.Now().Add(30 * time.Second))
	sent := 0
	for {
		n, err := cl.c.Write(payload)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("server stopped reading after %d bytes of requests but never hung up", sent+n)
		}
		if sent += n; err != nil {
			break // the server hung up on us
		}
		if sent > 256<<20 {
			t.Fatalf("server still accepting requests after %d MiB of unread replies", sent>>20)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for svc.inFlightTotal() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if left := svc.inFlightTotal(); left != 0 {
		t.Fatalf("cut-off client's session never expired: %d in flight", left)
	}
	if tbl := svc.tableFor(0); tbl.m.expired.Value() != 1 {
		t.Fatalf("expired=%d, want the stalled client's one session", tbl.m.expired.Value())
	}
}

// TestDrainDeliversLastEvent is the regression test for Drain closing a
// socket under its writer: a release's ack queues the `released` event and
// then takes the session out of inFlight, so Drain's poll could read zero
// and close the connection while the event was still pending — counted by
// the server, never seen by the client. Every round releases at a different
// phase of Drain's poll and then reads the socket to EOF; whatever the
// server counted as released must have arrived.
func TestDrainDeliversLastEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server per round; skipped in -short")
	}
	for round := 0; round < 160; round++ {
		svc, err := New(Config{
			N: 3, Topology: "ring",
			Tick: 200 * time.Microsecond, HBTimeout: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl := dialBench(t, ln.Addr().String())
		id := fmt.Sprintf("last-%d", round)
		if err := lockproto.WriteRequest(cl.c, &lockproto.Request{Op: lockproto.OpAcquire, Diner: 0, ID: id}); err != nil {
			t.Fatal(err)
		}
		cl.await(t, lockproto.EvGranted, id)

		drained := make(chan struct{})
		go func() {
			svc.Drain(5 * time.Second)
			close(drained)
		}()
		// Spread the releases over Drain's 20 ms poll, so some acks land
		// just ahead of the poll that ends the wait.
		time.Sleep(time.Duration(round%40) * 500 * time.Microsecond)
		if err := lockproto.WriteRequest(cl.c, &lockproto.Request{Op: lockproto.OpRelease, Diner: 0, ID: id}); err != nil {
			t.Fatal(err)
		}
		<-drained

		cl.c.SetReadDeadline(time.Now().Add(10 * time.Second)) // failure path only
		seen := false
		for {
			var e lockproto.Event
			if err := cl.er.Read(&e); err != nil {
				if err != io.EOF {
					t.Fatalf("round %d: reading to EOF: %v", round, err)
				}
				break
			}
			if e.Ev == lockproto.EvReleased && e.ID == id {
				seen = true
			}
		}
		cl.c.Close()
		if released := svc.tableFor(0).m.released.Value(); released != 1 {
			t.Fatalf("round %d: released=%d, want the one session", round, released)
		}
		if !seen {
			t.Fatalf("round %d: server counted the release but the client never got `released`", round)
		}
	}
}

// TestConnForgetsFinishedSessions: a connection's attached map is what its
// teardown must detach, so it holds the connection's sessions in flight —
// not every session the connection ever opened (it used to: a client that
// served 185 000 sessions over one socket pinned 185 000 dead *session
// values, all re-locked and Detach-ed one by one when it hung up). Half the
// sessions release before their grant, the other path out of the map.
func TestConnForgetsFinishedSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server; skipped in -short")
	}
	svc, addr, _ := seatServer(t, Config{})
	defer svc.Drain(5 * time.Second)
	cl := dialBench(t, addr)
	defer cl.c.Close()

	attached := func() int {
		svc.connMu.Lock()
		defer svc.connMu.Unlock()
		if len(svc.conns) != 1 {
			t.Fatalf("%d connections open, want the one", len(svc.conns))
		}
		for _, jc := range svc.conns {
			// The request loop is idle — every request sent has been answered,
			// and each answer was written after the loop was done with it.
			return len(jc.attached)
		}
		return 0
	}
	const sessions = 20_000
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s-%d", i)
		if i%2 == 0 {
			cl.session(t, 0, id)
		} else {
			// Queued behind a held session, released before its grant.
			hold := fmt.Sprintf("h-%d", i)
			cl.request(t, lockproto.OpAcquire, 0, hold)
			cl.await(t, lockproto.EvGranted, hold)
			cl.request(t, lockproto.OpAcquire, 0, id)
			cl.request(t, lockproto.OpRelease, 0, id)
			cl.await(t, lockproto.EvReleased, id)
			if n := attached(); n != 1 {
				t.Fatalf("after %d sessions: %d sessions attached, want the one held", i+1, n)
			}
			cl.request(t, lockproto.OpRelease, 0, hold)
			cl.await(t, lockproto.EvReleased, hold)
		}
		if i%1000 < 2 {
			if n := attached(); n != 0 {
				t.Fatalf("after %d sessions, none in flight: connection still remembers %d", i+1, n)
			}
		}
	}
}
