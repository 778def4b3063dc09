package dinesvc

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dining"
	"repro/internal/lockproto"
	"repro/internal/wal"
)

// This file covers the seat paths that otherwise only the end-to-end
// scenarios (internal/e2e) reach: a process crash under a hungry and under an
// eating session, a release that overtakes its grant, a reboot onto a granted
// ledger, and ack ordering on a durable table. Every test ends on those
// scenarios' conservation check.

// seatServer boots a 3-ring on an ephemeral port. restarted carries one token
// per completed ChaosCrash restart.
func seatServer(t *testing.T, cfg Config) (svc *Service, addr string, restarted <-chan struct{}) {
	t.Helper()
	ch := make(chan struct{}, 4)
	cfg.N, cfg.Topology = 3, "ring"
	cfg.Tick, cfg.HBTimeout = 200*time.Microsecond, 5000
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(format, "restarted") {
			ch <- struct{}{}
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return svc, ln.Addr().String(), ch
}

func (cl *benchClient) request(t *testing.T, op string, diner int, id string) {
	t.Helper()
	if err := lockproto.WriteRequest(cl.c, &lockproto.Request{Op: op, Diner: diner, ID: id}); err != nil {
		t.Fatal(err)
	}
}

// next reads one event, failing the test on a protocol error.
func (cl *benchClient) next(t *testing.T) lockproto.Event {
	t.Helper()
	var e lockproto.Event
	if err := cl.er.Read(&e); err != nil {
		t.Fatal(err)
	}
	if e.Ev == lockproto.EvError {
		t.Fatalf("server error for %s: %s", e.ID, e.Msg)
	}
	return e
}

// dinerState reads a diner's phase the only legal way: as a step of its own
// process.
func dinerState(t *testing.T, svc *Service, diner int) dining.State {
	t.Helper()
	st := svc.tableFor(diner).seatOf(diner)
	got := make(chan dining.State, 1)
	if !st.t.r.Invoke(st.p, func() { got <- st.d.State() }) {
		t.Fatalf("diner %d refused a step (crashed?)", diner)
	}
	return <-got
}

func awaitState(t *testing.T, svc *Service, diner int, want dining.State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for dinerState(t, svc, diner) != want {
		if time.Now().After(deadline) {
			t.Fatalf("diner %d never became %v", diner, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func crashAndRestart(t *testing.T, svc *Service, diner int, restarted <-chan struct{}) {
	t.Helper()
	if err := svc.ChaosCrash(diner, 0, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case <-restarted:
	case <-time.After(5 * time.Second):
		t.Fatalf("diner %d never restarted", diner)
	}
}

// drainConserved drains and asserts the end-of-run accounting: nothing in
// flight, nothing held, every grant matched by a release, a clean verdict.
func drainConserved(t *testing.T, svc *Service, wantGranted, wantRegranted int64) {
	t.Helper()
	svc.Drain(5 * time.Second)
	if left := svc.inFlightTotal(); left != 0 {
		t.Fatalf("%d sessions in flight after drain", left)
	}
	var granted, regranted, released, held int64
	for _, tbl := range svc.tables {
		granted += tbl.m.granted.Value()
		regranted += tbl.m.regranted.Value()
		released += tbl.m.released.Value()
		held += tbl.m.held.Value()
	}
	if granted != wantGranted || regranted != wantRegranted {
		t.Fatalf("granted=%d regranted=%d, want %d/%d", granted, regranted, wantGranted, wantRegranted)
	}
	if held != 0 || granted+regranted != released+held {
		t.Fatalf("accounting leak: granted=%d regranted=%d released=%d held=%d", granted, regranted, released, held)
	}
	if err := svc.Verdict(); err != nil {
		t.Fatalf("verdict: %v", err)
	}
}

// TestSeatCrashWhileHungry: the diner's process crashes while its session is
// waiting for a fork the eating neighbour holds. The restart finds the
// session still at the head of the seat, requests the section again, and the
// client is granted exactly once.
func TestSeatCrashWhileHungry(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server; skipped in -short")
	}
	svc, addr, restarted := seatServer(t, Config{})
	a, b := dialBench(t, addr), dialBench(t, addr)
	defer a.c.Close()
	defer b.c.Close()

	a.request(t, lockproto.OpAcquire, 1, "blocker")
	a.await(t, lockproto.EvGranted, "blocker")
	b.request(t, lockproto.OpAcquire, 0, "victim")
	awaitState(t, svc, 0, dining.Hungry)
	crashAndRestart(t, svc, 0, restarted)
	awaitState(t, svc, 0, dining.Hungry) // re-requested by the restart alone

	a.request(t, lockproto.OpRelease, 1, "blocker")
	a.await(t, lockproto.EvReleased, "blocker")
	b.await(t, lockproto.EvGranted, "victim")
	b.request(t, lockproto.OpRelease, 0, "victim")
	if e := b.next(t); e.Ev != lockproto.EvReleased || e.ID != "victim" {
		t.Fatalf("after the grant came %+v, want the release ack (a second grant?)", e)
	}
	drainConserved(t, svc, 2, 0)
}

// TestSeatCrashWhileEating: the process crashes under a granted session. The
// dining layer's critical section is gone with the incarnation, but the
// session keeps its registry grant — nothing is re-granted, nothing is
// announced — and the client's release after the restart finishes it.
func TestSeatCrashWhileEating(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server; skipped in -short")
	}
	svc, addr, restarted := seatServer(t, Config{})
	cl := dialBench(t, addr)
	defer cl.c.Close()

	cl.request(t, lockproto.OpAcquire, 0, "holder")
	cl.await(t, lockproto.EvGranted, "holder")
	crashAndRestart(t, svc, 0, restarted)
	awaitState(t, svc, 0, dining.Thinking)
	tbl := svc.tableFor(0)
	if g, h := tbl.m.granted.Value(), tbl.m.held.Value(); g != 1 || h != 1 {
		t.Fatalf("after the restart granted=%d held=%d, want the one grant still held", g, h)
	}
	cl.request(t, lockproto.OpRelease, 0, "holder")
	if e := cl.next(t); e.Ev != lockproto.EvReleased || e.ID != "holder" {
		t.Fatalf("after the restart came %+v, want only the release ack", e)
	}
	// The seat is free again: the next session goes through.
	cl.session(t, 0, "after")
	drainConserved(t, svc, 2, 0)
}

// TestSeatReleaseBeforeGrant: a client gives up on a queued acquire
// (ReleasePending). It is acknowledged at once, the section it eventually
// wins is handed straight back without the client ever seeing a grant, and
// the session queued behind it is served.
func TestSeatReleaseBeforeGrant(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server; skipped in -short")
	}
	svc, addr, _ := seatServer(t, Config{})
	a, b := dialBench(t, addr), dialBench(t, addr)
	defer a.c.Close()
	defer b.c.Close()

	a.request(t, lockproto.OpAcquire, 1, "blocker")
	a.await(t, lockproto.EvGranted, "blocker")
	b.request(t, lockproto.OpAcquire, 0, "quitter")
	b.request(t, lockproto.OpAcquire, 0, "next")
	awaitState(t, svc, 0, dining.Hungry)
	b.request(t, lockproto.OpRelease, 0, "quitter")
	if e := b.next(t); e.Ev != lockproto.EvReleased || e.ID != "quitter" {
		t.Fatalf("release of a queued acquire answered %+v, want its ack", e)
	}
	a.request(t, lockproto.OpRelease, 1, "blocker")
	a.await(t, lockproto.EvReleased, "blocker")
	if e := b.next(t); e.Ev != lockproto.EvGranted || e.ID != "next" {
		t.Fatalf("after the unwind came %+v, want the next session's grant", e)
	}
	b.request(t, lockproto.OpRelease, 0, "next")
	b.await(t, lockproto.EvReleased, "next")
	drainConserved(t, svc, 2, 0) // blocker and next; quitter never counted
}

// TestSeatDurableRegrant: a server goes down with a granted session on disk.
// The next boot re-wins the dining layer for it — one regrant, no second
// grant record — and the reconnecting client is told about its grant once.
func TestSeatDurableRegrant(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two full servers; skipped in -short")
	}
	dir := t.TempDir()
	svc, addr, _ := seatServer(t, Config{DataDir: dir})
	cl := dialBench(t, addr)
	cl.request(t, lockproto.OpAcquire, 0, "survivor")
	cl.await(t, lockproto.EvGranted, "survivor")
	svc.Drain(0) // down with the grant held: the ledger ends acquire, grant
	cl.c.Close()

	svc, addr, _ = seatServer(t, Config{DataDir: dir})
	cl = dialBench(t, addr)
	defer cl.c.Close()
	cl.request(t, lockproto.OpAcquire, 0, "survivor") // the client's replay
	cl.await(t, lockproto.EvGranted, "survivor")
	cl.request(t, lockproto.OpRelease, 0, "survivor")
	if e := cl.next(t); e.Ev != lockproto.EvReleased || e.ID != "survivor" {
		t.Fatalf("after the re-sent grant came %+v, want the release ack (grant sent twice?)", e)
	}
	drainConserved(t, svc, 0, 1)

	want := []string{lockproto.RecAcquire, lockproto.RecGrant, lockproto.RecRelease}
	led := sessionLedger(t, []string{dir})
	if got := led[lockproto.Key{Diner: 0, ID: "survivor"}]; !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger across the reboot = %v, want %v", got, want)
	}
}

// TestSeatDurableAckOrder: on a durable table the acks leave through the
// committer, and it must keep posting order — a connection that queued two
// sessions on one diner sees released(k1) before granted(k2), every time.
func TestSeatDurableAckOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server; skipped in -short")
	}
	svc, addr, _ := seatServer(t, Config{DataDir: t.TempDir()})
	cl := dialBench(t, addr)
	defer cl.c.Close()

	const rounds = 50
	cl.request(t, lockproto.OpAcquire, 0, "k0")
	for i := 0; i < rounds; i++ {
		cur, nxt := fmt.Sprintf("k%d", i), fmt.Sprintf("k%d", i+1)
		cl.request(t, lockproto.OpAcquire, 0, nxt)
		if e := cl.next(t); e.Ev != lockproto.EvGranted || e.ID != cur {
			t.Fatalf("round %d: got %+v, want granted(%s)", i, e, cur)
		}
		cl.request(t, lockproto.OpRelease, 0, cur)
		if e := cl.next(t); e.Ev != lockproto.EvReleased || e.ID != cur {
			t.Fatalf("round %d: got %+v, want released(%s) ahead of granted(%s)", i, e, cur, nxt)
		}
	}
	last := fmt.Sprintf("k%d", rounds)
	cl.await(t, lockproto.EvGranted, last)
	cl.request(t, lockproto.OpRelease, 0, last)
	cl.await(t, lockproto.EvReleased, last)
	drainConserved(t, svc, rounds+1, 0)
}

// standingGoroutines is the lowest goroutine count seen over a sampling
// window: timer callbacks come and go (a 32-diner table fires thousands a
// second), the budget is about the goroutines that stay.
func standingGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n = m
		}
	}
	return n
}

// TestGoroutineBudget: a booted service owns the runtime's process loops,
// one janitor per table, the accept loop, and — per durable table — the WAL
// store's own goroutines plus one committer. Nothing per diner, nothing per
// session; and Drain takes all of it down.
func TestGoroutineBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two full servers; skipped in -short")
	}
	const n, tables = 32, 2

	// What one open WAL store costs on its own, under the policy used below.
	base := standingGoroutines()
	store, _, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.PolicyNever})
	if err != nil {
		t.Fatal(err)
	}
	perStore := standingGoroutines() - base
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	for _, durable := range []bool{false, true} {
		cfg := Config{N: n, Tables: tables, Topology: "ring", Tick: time.Millisecond, HBTimeout: 2000}
		want := n + tables + 1 // process loops, janitors, accept
		if durable {
			cfg.DataDir, cfg.Fsync = t.TempDir(), "never"
			want += tables * (perStore + 1) // each store, and its committer
		}
		base := standingGoroutines()
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		for _, tbl := range svc.tables {
			if len(tbl.globals) == 0 {
				t.Fatalf("table %d hosts no diner; the budget below assumes a janitor per table", tbl.idx)
			}
		}
		if got := standingGoroutines() - base; got != want {
			t.Errorf("durable=%v: boot added %d goroutines, want %d (%d process loops + %d janitors + accept, %d per WAL store + 1 committer)",
				durable, got, want, n, tables, perStore)
		}
		svc.Drain(time.Second)
		if left := standingGoroutines() - base; left > 0 {
			t.Errorf("durable=%v: %d goroutines left behind by Drain", durable, left)
		}
	}
}

// TestChaosCrashEndsWithDrain: a chaos crash whose restart is still an hour
// away is a goroutine Drain waits for and ends, not one that sleeps through
// the teardown and then restarts a diner on a stopped runtime.
func TestChaosCrashEndsWithDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server; skipped in -short")
	}
	base := standingGoroutines()
	svc, _, _ := seatServer(t, Config{})
	if err := svc.ChaosCrash(1, 0, time.Hour); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !svc.tableFor(1).r.Crashed(1) {
		if time.Now().After(deadline) {
			t.Fatal("diner 1 never crashed")
		}
		time.Sleep(time.Millisecond)
	}
	svc.Drain(time.Second)
	if left := standingGoroutines() - base; left > 0 {
		t.Fatalf("%d goroutines left behind by Drain", left)
	}
	if err := svc.Verdict(); err != nil {
		t.Fatalf("verdict: %v", err)
	}
}

// TestHostileLineClosesOnlyItsConnection: a client that sends a request line
// and never ends it costs the server one bounded buffer, not its memory. The
// server closes that connection once the line passes the wire's bound, while
// a second client is served as usual, and the dead connection leaves no
// goroutine and nothing in flight behind.
func TestHostileLineClosesOnlyItsConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full server; skipped in -short")
	}
	svc, addr, _ := seatServer(t, Config{})
	floor := standingGoroutines()

	hostile, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()
	line := append([]byte(`{"op":"acquire","diner":0,"id":"`), bytes.Repeat([]byte("x"), 100<<10)...)
	go hostile.Write(line) // fails once the server hangs up; that is the point

	good := dialBench(t, addr)
	good.session(t, 0, "ok")

	hostile.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := hostile.Read(make([]byte, 1)); err == nil {
		t.Fatal("the server answered an unterminated line")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the server still holds a connection past the line bound")
	}

	good.c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for standingGoroutines() > floor {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines above the idle floor after both clients left", standingGoroutines()-floor)
		}
	}
	drainConserved(t, svc, 1, 0)
}
