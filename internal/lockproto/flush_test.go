package lockproto

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
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
