package lockproto

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// testTimeout is the failure path of every wait below: no assertion
// depends on how long anything took.
const testTimeout = 10 * time.Second

// chunkRecorder records every Write call (the batch boundaries). With a
// gate, each Write first announces itself on entered and then blocks until
// the test sends on gate (or closes it) — how a test holds the flusher
// inside Write.
type chunkRecorder struct {
	mu      sync.Mutex
	chunks  [][]byte
	wrote   chan struct{} // signaled (non-blocking) after every Write
	entered chan struct{} // gated only: one token per Write that began
	gate    chan struct{} // gated only: one token lets one Write through; closed lets all
}

func newChunkRecorder() *chunkRecorder {
	// 64 exceeds the Writes any test here makes, so a signal is never lost.
	return &chunkRecorder{wrote: make(chan struct{}, 64)}
}

func newGatedRecorder() *chunkRecorder {
	c := newChunkRecorder()
	c.entered = make(chan struct{}, cap(c.wrote))
	c.gate = make(chan struct{})
	return c
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	if c.gate != nil {
		c.entered <- struct{}{}
		<-c.gate
	}
	c.mu.Lock()
	c.chunks = append(c.chunks, append([]byte(nil), p...))
	c.mu.Unlock()
	select {
	case c.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (c *chunkRecorder) joined() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Join(c.chunks, nil)
}

func (c *chunkRecorder) chunk(i int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chunks[i]
}

func (c *chunkRecorder) writeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.chunks)
}

// await receives from ch, failing the test if nothing arrives.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(testTimeout):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// burstBehindWrite holds the first Write (one event) on the gate, sends n
// more events behind it, opens the gate and closes the writer. It returns
// the recorder and the writer, whose wire counters are live.
func burstBehindWrite(t *testing.T, n int) (*chunkRecorder, *FlushWriter) {
	t.Helper()
	rec := newGatedRecorder()
	fw := NewFlushWriter(rec, 1<<20, 0)
	fw.Writes, fw.Events, fw.Bytes = new(metrics.Counter), new(metrics.Counter), new(metrics.Counter)

	if !fw.Send(&Event{Ev: EvGranted, Diner: 1, ID: "first"}) {
		t.Fatal("send refused")
	}
	await(t, rec.entered, "the first Write to begin")
	for i := 0; i < n; i++ {
		if !fw.Send(&Event{Ev: EvReleased, Diner: i % 5, ID: fmt.Sprintf("s%d", i)}) {
			t.Fatal("send refused")
		}
	}
	rec.gate <- struct{}{} // the first Write returns
	await(t, rec.entered, "the second Write to begin")
	close(rec.gate) // the second returns, and any Write there should not be
	await(t, rec.wrote, "the first Write to land")
	await(t, rec.wrote, "the second Write to land")
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return rec, fw
}

// TestFlushWriterIdleWritesAtOnce: a single event on an otherwise idle
// connection reaches Write with no further Send and no Close to push it
// out — nothing but the flusher's own wake-up stands between Send and the
// wire.
func TestFlushWriterIdleWritesAtOnce(t *testing.T) {
	rec := newChunkRecorder()
	fw := NewFlushWriter(rec, 1<<20, 0)
	defer fw.Close()

	if !fw.Send(&Event{Ev: EvGranted, Diner: 1, ID: "solo"}) {
		t.Fatal("send refused")
	}
	await(t, rec.wrote, "the idle writer's Write")
	if got := rec.joined(); !bytes.Contains(got, []byte(`"solo"`)) {
		t.Fatalf("flushed bytes %q missing the event", got)
	}
}

// TestFlushWriterCoalescesBehindWrite is what pins batching under load:
// everything sent while a Write is in flight forms the next batch — exactly
// one more Write, carrying all of it — and the wire counters saw both.
func TestFlushWriterCoalescesBehindWrite(t *testing.T) {
	const n = 50
	rec, fw := burstBehindWrite(t, n)
	if w := rec.writeCount(); w != 2 {
		t.Fatalf("%d events behind one in-flight Write took %d writes, want 2", n, w)
	}
	if first := rec.chunk(0); !bytes.Contains(first, []byte(`"first"`)) || bytes.Count(first, []byte("\n")) != 1 {
		t.Fatalf("first write %q, want the one idle event", first)
	}
	second := rec.chunk(1)
	if got := bytes.Count(second, []byte("\n")); got != n {
		t.Fatalf("second write carries %d events, want %d", got, n)
	}
	if w, e, b := fw.Writes.Value(), fw.Events.Value(), fw.Bytes.Value(); w != 2 || e != n+1 || b != int64(len(rec.joined())) {
		t.Fatalf("wire counters: %d writes, %d events, %d bytes; want 2, %d, %d", w, e, b, n+1, len(rec.joined()))
	}
}

// TestFlushWriterCoalesces: a burst sent behind an in-flight Write reaches
// the socket in order and intact, with nothing trailing.
func TestFlushWriterCoalesces(t *testing.T) {
	const n = 200
	rec, _ := burstBehindWrite(t, n)
	er := NewEventReader(bytes.NewReader(rec.joined()))
	var ev Event
	if err := er.Read(&ev); err != nil || ev.ID != "first" {
		t.Fatalf("leading event: %q, %v", ev.ID, err)
	}
	for i := 0; i < n; i++ {
		ev = Event{}
		if err := er.Read(&ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if want := fmt.Sprintf("s%d", i); ev.ID != want {
			t.Fatalf("event %d out of order: got %q want %q", i, ev.ID, want)
		}
	}
	var extra Event
	if err := er.Read(&extra); err != io.EOF {
		t.Fatalf("trailing data after %d events: %v", n+1, err)
	}
}

// errWriter fails every write after the first.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, fmt.Errorf("boom")
	}
	return len(p), nil
}

// TestFlushWriterErrorStops: after a write error, Send reports failure —
// the signal a suspect feed uses to drop a watcher.
func TestFlushWriterErrorStops(t *testing.T) {
	fw := NewFlushWriter(&errWriter{}, 1<<20, 0)
	fw.Send(&Event{Ev: EvGranted, ID: "a"})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !fw.Send(&Event{Ev: EvGranted, ID: "b"}) {
			if fw.Close() == nil {
				t.Fatal("Close lost the sticky write error")
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("Send kept accepting events after the writer died")
}

// TestFlushWriterCloseDrains: events sent just before Close are written,
// and Send after Close is refused.
func TestFlushWriterCloseDrains(t *testing.T) {
	rec := newChunkRecorder()
	fw := NewFlushWriter(rec, 1<<20, 0)
	for i := 0; i < 10; i++ {
		fw.Send(&Event{Ev: EvReleased, ID: fmt.Sprintf("c%d", i)})
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.joined(); !bytes.Contains(got, []byte(`"c9"`)) {
		t.Fatalf("Close lost buffered events: %q", got)
	}
	if fw.Send(&Event{Ev: EvReleased, ID: "late"}) {
		t.Fatal("Send accepted an event after Close")
	}
	if bytes.Contains(rec.joined(), []byte(`"late"`)) {
		t.Fatal("post-Close event reached the writer")
	}
}

// stalledWriter is a socket whose peer stopped reading: Write blocks until
// the owner closes it, then fails.
type stalledWriter struct {
	entered chan struct{} // closed when the first Write blocks
	once    sync.Once
	closed  chan struct{}
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.closed
	return 0, io.ErrClosedPipe
}

// TestFlushWriterBacklogBound: behind a Write that never returns the pending
// buffer stops growing at backlogBatches*MaxBatch, Send reports false from
// there on, and once the owner closes the socket Close returns ErrBacklog.
func TestFlushWriterBacklogBound(t *testing.T) {
	w := &stalledWriter{entered: make(chan struct{}), closed: make(chan struct{})}
	const batch = 256
	fw := NewFlushWriter(w, batch, 0)
	ev := Event{Ev: EvSuspect, Diner: 1, Peer: 2, T: 7}
	if !fw.Send(&ev) {
		t.Fatal("first send refused")
	}
	<-w.entered // the flusher is now stuck inside Write with that event
	one := len(AppendEvent(nil, &ev)) + 1
	accepted := 0
	for fw.Send(&ev) {
		if accepted++; accepted*one > 2*backlogBatches*batch {
			t.Fatalf("buffer grew past twice the bound (%d events accepted)", accepted)
		}
	}
	fw.mu.Lock()
	pending := len(fw.buf)
	fw.mu.Unlock()
	if bound := backlogBatches * batch; pending < bound || pending >= bound+one || pending != accepted*one {
		t.Fatalf("pending buffer %d bytes after %d accepted events, want the bound %d (+ under one event)", pending, accepted, bound)
	}
	if fw.Send(&ev) {
		t.Fatal("Send accepted an event after the backlog bound tripped")
	}
	close(w.closed) // what the connection's owner does when Send reports false
	if err := fw.Close(); err != ErrBacklog {
		t.Fatalf("Close = %v, want ErrBacklog", err)
	}
}

// tcpPair returns both ends of a loopback TCP connection, closed at the
// end of the test.
func tcpPair(t *testing.T) (srv, cli net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, err = ln.Accept()
	if err != nil {
		cli.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cli.Close() })
	return srv, cli
}

// readN reads exactly n bytes from c, failing the test if they do not come.
func readN(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(testTimeout))
	got := make([]byte, n)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("reading %d bytes: %v", n, err)
	}
	return got
}

// flusherCounted is a TCP connection whose Write, the flusher's only way
// to the socket, is counted. Its SyscallConn is the connection's own, so
// the owner's try-write passes the count by.
type flusherCounted struct {
	*net.TCPConn
	writes atomic.Int64
}

func (c *flusherCounted) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

// TestFlushWriterOwnerWritesInline: on an idle socket, an event sent under
// Hold is written by Flush itself — all of it, before Flush returns —
// and the flusher never writes.
func TestFlushWriterOwnerWritesInline(t *testing.T) {
	srv, cli := tcpPair(t)
	conn := &flusherCounted{TCPConn: srv.(*net.TCPConn)}
	fw := NewFlushWriter(conn, 0, 0)
	fw.Writes, fw.Events, fw.Bytes = new(metrics.Counter), new(metrics.Counter), new(metrics.Counter)

	ev := Event{Ev: EvGranted, Diner: 1, ID: "inline"}
	want := append(AppendEvent(nil, &ev), '\n')
	fw.Hold()
	if !fw.Send(&ev) {
		t.Fatal("send refused")
	}
	fw.Flush()
	if w, e, b := fw.Writes.Value(), fw.Events.Value(), fw.Bytes.Value(); w != 1 || e != 1 || b != int64(len(want)) {
		t.Fatalf("after Flush: %d writes, %d events, %d bytes; want 1, 1, %d", w, e, b, len(want))
	}
	if got := readN(t, cli, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("wire %q, want %q", got, want)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := conn.writes.Load(); n != 0 {
		t.Fatalf("the flusher wrote %d times for an event the owner wrote", n)
	}
}

// TestFlushWriterNoInlineWithoutSocket: over a writer that is not a
// syscall.Conn, Flush only wakes the flusher. The recorder holds its
// Write on the gate, so an inline write would keep Flush from returning.
func TestFlushWriterNoInlineWithoutSocket(t *testing.T) {
	rec := newGatedRecorder()
	fw := NewFlushWriter(rec, 1<<20, 0)
	fw.Hold()
	if !fw.Send(&Event{Ev: EvGranted, Diner: 1, ID: "queued"}) {
		t.Fatal("send refused")
	}
	flushed := make(chan struct{})
	go func() { fw.Flush(); close(flushed) }()
	await(t, flushed, "Flush to return with the Write still gated")
	await(t, rec.entered, "the flusher's Write")
	close(rec.gate)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.joined(); !bytes.Contains(got, []byte(`"queued"`)) {
		t.Fatalf("flushed bytes %q missing the event", got)
	}
}

// TestFlushWriterRefusedTailLeads: while the peer does not read, the
// owner's try-writes fill the socket until one is refused, in part or
// whole; the refused tail goes to the head of the buffer for the flusher,
// ahead of the event sent during that try-write and of every event after
// it. Once the peer reads, the stream is byte for byte the events in Send
// order.
func TestFlushWriterRefusedTailLeads(t *testing.T) {
	srv, cli := tcpPair(t)
	srv.(*net.TCPConn).SetWriteBuffer(4 << 10)
	fw := NewFlushWriter(srv, 0, 0)
	defer fw.Close()

	var want bytes.Buffer
	msg := strings.Repeat("m", 1500)
	seq := 0
	send := func() {
		ev := Event{Ev: EvInfo, T: int64(seq), Msg: msg}
		seq++
		if !fw.Send(&ev) {
			t.Fatal("send refused")
		}
		want.Write(AppendEvent(nil, &ev))
		want.WriteByte('\n')
	}
	// Each try-write has an event sent while its batch is out, and notes
	// when the socket took less than the whole batch.
	refused := false
	try := fw.tryFn
	fw.tryFn = func(fd uintptr) bool {
		send()
		ok := try(fd)
		refused = refused || fw.tryN < len(fw.try)
		return ok
	}
	// Three events per request, so that a batch can straddle the socket's
	// free space and be written in part.
	for !refused {
		if want.Len() > 64<<20 {
			t.Fatal("the socket never refused a write")
		}
		fw.Hold()
		send()
		send()
		send()
		fw.Flush()
	}
	for i := 0; i < 20; i++ {
		fw.Hold()
		send()
		fw.Flush()
	}
	if got := readN(t, cli, want.Len()); !bytes.Equal(got, want.Bytes()) {
		i := 0
		for i < len(got) && got[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("%d events, %d bytes: the stream departs from Send order at byte %d", seq, want.Len(), i)
	}
}

// TestFlushWriterOwnerAndSenders: four senders against an owner looping
// Hold and Flush over a socket, and then against no owner at all.
// Every event arrives exactly once and in its sender's order, with no
// Flush or Close after the last Send to push it out. Run under -race.
func TestFlushWriterOwnerAndSenders(t *testing.T) {
	srv, cli := tcpPair(t)
	fw := NewFlushWriter(srv, 0, 0)
	defer fw.Close()

	const senders, each = 4, 2000
	half := make(chan struct{})
	var halfway sync.WaitGroup
	halfway.Add(senders)
	go func() { halfway.Wait(); close(half) }()
	for s := 0; s < senders; s++ {
		go func() {
			for i := 0; i < each; i++ {
				if i == each/2 {
					halfway.Done()
				}
				if !fw.Send(&Event{Ev: EvSuspect, Of: s, Peer: i}) {
					t.Error("send refused")
					return
				}
			}
		}()
	}
	// The owner stops once every sender is half done.
	for owning := true; owning; {
		select {
		case <-half:
			owning = false
		default:
			fw.Hold()
			fw.Flush()
		}
	}

	cli.SetReadDeadline(time.Now().Add(testTimeout))
	er := NewEventReader(cli)
	next := make([]int, senders)
	for n := 0; n < senders*each; n++ {
		var ev Event
		if err := er.Read(&ev); err != nil {
			t.Fatalf("after %d of %d events: %v", n, senders*each, err)
		}
		if ev.Of < 0 || ev.Of >= senders {
			t.Fatalf("event %d: from no sender: %+v", n, ev)
		}
		if ev.Peer != next[ev.Of] {
			t.Fatalf("event %d: sender %d's #%d, want #%d", n, ev.Of, ev.Peer, next[ev.Of])
		}
		next[ev.Of]++
	}
}

func BenchmarkFlushWriterSend(b *testing.B) {
	b.ReportAllocs()
	fw := NewFlushWriter(io.Discard, 32<<10, 0)
	defer fw.Close()
	ev := Event{Ev: EvGranted, Diner: 3, ID: "a1b2c3-c12-345", T: 123456}
	// The flusher is one goroutine against GOMAXPROCS senders that never
	// block: on a small host it may get no slice before the senders fill
	// the backlog bound, and Send refuses. So a sender yields, but only
	// while the pending buffer is past half the bound — about once per 10⁵
	// sends, checked every 256 — keeping this a benchmark of Send, not of
	// Gosched.
	half := backlogBatches * fw.maxBatch / 2
	b.RunParallel(func(pb *testing.PB) {
		for n := 1; pb.Next(); n++ {
			if !fw.Send(&ev) {
				b.Fatal("send refused")
			}
			if n%256 != 0 {
				continue
			}
			fw.mu.Lock()
			pending := len(fw.buf)
			fw.mu.Unlock()
			if pending > half {
				runtime.Gosched()
			}
		}
	})
}
