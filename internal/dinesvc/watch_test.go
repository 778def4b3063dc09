package dinesvc

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/lockproto"
	"repro/internal/rt"
)

// TestWatchIsIdempotentPerConn: one watch per connection. A repeat is
// refused and changes nothing: no further subscription, and every suspect
// change still arrives once. Watching starts no goroutine: the feeds write to
// the connection themselves.
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
	if added := standingGoroutines() - base; added > 0 {
		t.Fatalf("%d watches on one connection added %d goroutines, want none", watches, added)
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

// watchOne boots a single-table 4-ring without the extraction, so its feed
// carries only what a test traces into it, and returns that feed and a
// client whose watch is subscribed (its empty snapshot read).
func watchOne(t *testing.T) (*suspectFeed, *benchClient) {
	t.Helper()
	svc, err := New(Config{N: 4, Topology: "ring", Tick: time.Millisecond, HBTimeout: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Drain(5 * time.Second) })
	cl := dialBench(t, ln.Addr().String())
	t.Cleanup(func() { cl.c.Close() })
	cl.c.SetDeadline(time.Now().Add(30 * time.Second))
	cl.request(t, lockproto.OpWatch, 0, "")
	cl.request(t, lockproto.OpInfo, 0, "")
	if ev := cl.next(t); ev.Ev != lockproto.EvInfo {
		t.Fatalf("want an empty snapshot, then the info reply; got %+v", ev)
	}
	return svc.tables[0].feed, cl
}

// flip traces change i of an alternating run for the pair (0, 1): even
// changes suspect, odd ones trust, and change i is stamped T = i+1.
func flip(f *suspectFeed, i int) {
	kind := "suspect"
	if i%2 == 1 {
		kind = "trust"
	}
	f.Trace(rt.Record{Inst: extInst, Kind: kind, P: 0, Peer: 1, T: rt.Time(i + 1)})
}

// isFlip reports whether ev is change i of flip's run.
func isFlip(ev lockproto.Event, i int) bool {
	return ev.Ev == lockproto.EvSuspect && ev.Of == 0 && ev.Peer == 1 &&
		ev.T == int64(i+1) && ev.Suspect == (i%2 == 0)
}

// TestWatchDeliversEveryChange: a detector is the sequence of its output
// changes, so a burst of changes for one pair reaches the watcher whole and
// in order, and leaves it on the feed's final state.
func TestWatchDeliversEveryChange(t *testing.T) {
	const changes = 10000
	feed, cl := watchOne(t)
	for i := 0; i < changes; i++ {
		flip(feed, i)
	}
	// An info barrier: every change the server sent before its reply.
	cl.request(t, lockproto.OpInfo, 0, "")
	matrix := make(map[[2]int]bool)
	got := 0
	for ev := cl.next(t); ev.Ev != lockproto.EvInfo; ev = cl.next(t) {
		if !isFlip(ev, got) {
			t.Fatalf("change %d delivered as %+v", got, ev)
		}
		if ev.Suspect {
			matrix[[2]int{ev.Of, ev.Peer}] = true
		} else {
			delete(matrix, [2]int{ev.Of, ev.Peer})
		}
		got++
	}
	if got != changes {
		t.Fatalf("%d changes sent, %d delivered", changes, got)
	}
	feed.mu.Lock()
	defer feed.mu.Unlock()
	if !reflect.DeepEqual(matrix, feed.cur) {
		t.Fatalf("watcher ends on %v, the feed on %v", matrix, feed.cur)
	}
}

// TestSlowWatcherIsCut: a watcher that stops reading is not sent a stream
// with holes in it. Once its connection's backlog bound is reached, the send
// is refused, the socket is closed and the feed forgets the subscriber.
func TestSlowWatcherIsCut(t *testing.T) {
	feed, cl := watchOne(t)
	subscribed := func() int {
		feed.mu.Lock()
		defer feed.mu.Unlock()
		return len(feed.subs)
	}
	// The client reads nothing yet; the feed writes until it is refused.
	const limit = 1 << 21 // ≈ 140 MiB of events: far past the 8 MiB bound
	sent := 0
	for ; sent < limit && subscribed() > 0; sent++ {
		flip(feed, sent)
	}
	if sent == limit {
		t.Fatalf("a watcher that reads nothing still subscribed after %d changes", sent)
	}
	// What the socket held arrives; then the stream ends, with no hole.
	got := 0
	for ; ; got++ {
		var ev lockproto.Event
		if err := cl.er.Read(&ev); err != nil {
			break
		}
		if !isFlip(ev, got) {
			t.Fatalf("change %d delivered as %+v", got, ev)
		}
	}
	if got == 0 || got >= sent {
		t.Fatalf("%d changes sent, %d read before the cut", sent, got)
	}
}
