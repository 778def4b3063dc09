package dinesvc

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockproto"
)

// This file is the in-process half of the service benchmark suite: a real
// service (live runtime, forks table, heartbeat detector, TCP listener on a
// loopback ephemeral port) driven by real protocol clients, with no
// persistence and no extractor so the measured path is exactly the request
// pipeline — codec, session registry, diner seat, flush writer. The dining
// layer's own share is tens of microseconds (its steps run on the event
// that enables them) and nothing waits on a timer; the rest of the round
// trip is loopback crossings and the wake-ups between socket reader, diner
// process and flusher. `make bench-serve` records these in
// BENCH_serve.json; the end-to-end numbers are the repository benchmark's
// (bench/, `make bench-e2e`).

// benchServer boots a servable table set on an ephemeral port and returns
// its address plus a shutdown func. It takes testing.TB so the differential
// and regression tests drive the same client/server plumbing the benchmarks
// measure.
func benchServer(b testing.TB, n, tables int) (string, func()) {
	b.Helper()
	svc, err := New(Config{
		N: n, Tables: tables, Topology: "ring",
		Tick: 200 * time.Microsecond, HBTimeout: 2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	return ln.Addr().String(), func() {
		svc.Drain(5 * time.Second)
	}
}

// benchClient is one protocol client over the wire codec.
type benchClient struct {
	c  net.Conn
	er *lockproto.EventReader
}

func dialBench(b testing.TB, addr string) *benchClient {
	b.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	return &benchClient{c: c, er: lockproto.NewEventReader(c)}
}

// session runs one full acquire→grant→release→ack cycle.
func (cl *benchClient) session(b testing.TB, diner int, id string) {
	if err := lockproto.WriteRequest(cl.c, &lockproto.Request{Op: lockproto.OpAcquire, Diner: diner, ID: id}); err != nil {
		b.Fatal(err)
	}
	cl.await(b, lockproto.EvGranted, id)
	if err := lockproto.WriteRequest(cl.c, &lockproto.Request{Op: lockproto.OpRelease, Diner: diner, ID: id}); err != nil {
		b.Fatal(err)
	}
	cl.await(b, lockproto.EvReleased, id)
}

func (cl *benchClient) await(b testing.TB, ev, id string) {
	for {
		var e lockproto.Event
		if err := cl.er.Read(&e); err != nil {
			b.Fatal(err)
		}
		if e.Ev == lockproto.EvError {
			b.Fatalf("server error for %s: %s", id, e.Msg)
		}
		if e.Ev == ev && e.ID == id {
			return
		}
	}
}

// BenchmarkServeGrant measures the sequential end-to-end session round trip
// on an uncontended diner: acquire → grant → release → ack, one client.
func BenchmarkServeGrant(b *testing.B) {
	addr, stop := benchServer(b, 3, 1)
	defer stop()
	cl := dialBench(b, addr)
	defer cl.c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.session(b, 0, fmt.Sprintf("g-%d", i))
	}
	b.StopTimer()
}

// BenchmarkServeGrantTables4 is the same round trip through a sharded
// service: 16 diners over 4 tables, the client pinned to one diner. The
// router adds a hash and two slice lookups per request; the number should
// sit within noise of the single-table run.
func BenchmarkServeGrantTables4(b *testing.B) {
	addr, stop := benchServer(b, 16, 4)
	defer stop()
	cl := dialBench(b, addr)
	defer cl.c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.session(b, 0, fmt.Sprintf("g-%d", i))
	}
	b.StopTimer()
}

// BenchmarkServeChurn measures concurrent session throughput: many clients
// churning sessions across all diners of a ring, the contention shape the
// sharded registry and the coalesced writes exist for.
func BenchmarkServeChurn(b *testing.B) {
	const n = 8
	addr, stop := benchServer(b, n, 1)
	defer stop()
	var cid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := cid.Add(1)
		cl := dialBench(b, addr)
		defer cl.c.Close()
		// Spread clients over diners; even/odd neighbours of a ring contend
		// on forks, so this exercises real dining-layer arbitration too.
		diner := int(id) % n
		for i := 0; pb.Next(); i++ {
			cl.session(b, diner, fmt.Sprintf("c%d-%d", id, i))
		}
	})
	b.StopTimer()
}
