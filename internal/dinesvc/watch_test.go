package dinesvc

import (
	"testing"
	"time"

	"repro/internal/lockproto"
	"repro/internal/rt"
)

// TestWatchIsIdempotentPerConn: one watch per connection. A repeat is
// refused and changes nothing: no further subscription, no further forwarder
// goroutine per table, and every suspect change still arrives once.
func TestWatchIsIdempotentPerConn(t *testing.T) {
	const n, tables, watches = 8, 2, 1000
	svc, err := New(Config{N: n, Tables: tables, Topology: "ring", Tick: time.Millisecond, HBTimeout: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(5 * time.Second)
	cl := dialBench(t, ln.Addr().String())
	defer cl.c.Close()
	cl.c.SetDeadline(time.Now().Add(30 * time.Second))

	// barrier sends an info request and reads up to its reply, so everything
	// the server sent before it has been seen; it returns the events on the
	// way, by kind.
	barrier := func() (suspects []lockproto.Event, refused int) {
		t.Helper()
		cl.request(t, lockproto.OpInfo, 0, "")
		for {
			var ev lockproto.Event
			if err := cl.er.Read(&ev); err != nil {
				t.Fatal(err)
			}
			switch {
			case ev.Ev == lockproto.EvInfo:
				return suspects, refused
			case ev.Ev == lockproto.EvSuspect:
				suspects = append(suspects, ev)
			case ev.Ev == lockproto.EvError && ev.Msg == "already watching":
				refused++
			default:
				t.Fatalf("unexpected event %+v", ev)
			}
		}
	}

	barrier() // the connection's handler and flusher are up
	base := standingGoroutines()
	for i := 0; i < watches; i++ {
		cl.request(t, lockproto.OpWatch, 0, "")
	}
	if _, refused := barrier(); refused != watches-1 {
		t.Fatalf("%d watches: %d refused, want all but the first", watches, refused)
	}
	if added := standingGoroutines() - base; added > tables+2 {
		t.Fatalf("%d watches on one connection added %d goroutines, want one forwarder per table (%d)", watches, added, tables)
	}

	// One change per table, delivered once each: wait for both, then let
	// any duplicate catch up behind a barrier.
	for _, tbl := range svc.tables {
		tbl.feed.Trace(rt.Record{Inst: extInst, Kind: "suspect", P: 0, Peer: 1})
	}
	var got []lockproto.Event
	for len(got) < tables {
		if ev := cl.next(t); ev.Ev == lockproto.EvSuspect {
			got = append(got, ev)
		}
	}
	if late, _ := barrier(); len(late) > 0 {
		t.Fatalf("%d changes delivered %d times: %+v then %+v", tables, tables+len(late), got, late)
	}
	if got[0].Of == got[1].Of {
		t.Fatalf("the two tables' changes name the same diner: %+v", got)
	}
}
