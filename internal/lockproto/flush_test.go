package lockproto

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// chunkRecorder records every Write call (the batch boundaries), with an
// optional per-write gate for deadline tests.
type chunkRecorder struct {
	mu     sync.Mutex
	chunks [][]byte
	wrote  chan struct{} // signaled (non-blocking) after every Write
}

func newChunkRecorder() *chunkRecorder {
	return &chunkRecorder{wrote: make(chan struct{}, 64)}
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
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

func (c *chunkRecorder) writeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.chunks)
}

// TestFlushWriterDeadline is the flush-deadline bound: a single event on an
// otherwise idle connection must hit the wire within (roughly) MaxDelay,
// with no further Sends and no Close needed to push it out.
func TestFlushWriterDeadline(t *testing.T) {
	rec := newChunkRecorder()
	const delay = 5 * time.Millisecond
	fw := NewFlushWriter(rec, 1<<20, delay)
	defer fw.Close()

	start := time.Now()
	if !fw.Send(&Event{Ev: EvGranted, Diner: 1, ID: "solo"}) {
		t.Fatal("send refused")
	}
	select {
	case <-rec.wrote:
	case <-time.After(100 * delay):
		t.Fatalf("event still unwritten %v after Send; deadline was %v", time.Since(start), delay)
	}
	if got := rec.joined(); !bytes.Contains(got, []byte(`"solo"`)) {
		t.Fatalf("flushed bytes %q missing the event", got)
	}
}

// TestFlushWriterCoalesces: a burst sent inside one coalescing window must
// reach the socket in far fewer Write calls than events, in order, intact.
func TestFlushWriterCoalesces(t *testing.T) {
	rec := newChunkRecorder()
	fw := NewFlushWriter(rec, 1<<20, 20*time.Millisecond)
	const n = 200
	for i := 0; i < n; i++ {
		if !fw.Send(&Event{Ev: EvReleased, Diner: i % 5, ID: fmt.Sprintf("s%d", i)}) {
			t.Fatal("send refused")
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if w := rec.writeCount(); w >= n/4 {
		t.Fatalf("no coalescing: %d events took %d writes", n, w)
	}
	er := NewEventReader(bytes.NewReader(rec.joined()))
	for i := 0; i < n; i++ {
		var ev Event
		if err := er.Read(&ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if want := fmt.Sprintf("s%d", i); ev.ID != want {
			t.Fatalf("event %d out of order: got %q want %q", i, ev.ID, want)
		}
	}
	var extra Event
	if err := er.Read(&extra); err != io.EOF {
		t.Fatalf("trailing data after %d events: %v", n, err)
	}
}

// TestFlushWriterMaxBatch: a burst larger than MaxBatch flushes on the size
// bound without waiting out a long delay window.
func TestFlushWriterMaxBatch(t *testing.T) {
	rec := newChunkRecorder()
	fw := NewFlushWriter(rec, 256, time.Hour) // the timer must never be the trigger
	defer fw.Close()
	big := strings.Repeat("x", 100)
	start := time.Now()
	for i := 0; i < 8; i++ {
		fw.Send(&Event{Ev: EvGranted, ID: big})
	}
	select {
	case <-rec.wrote:
	case <-time.After(5 * time.Second):
		t.Fatalf("full buffer never flushed (waited %v)", time.Since(start))
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
// the signal the watch forwarder uses to drop its subscription.
func TestFlushWriterErrorStops(t *testing.T) {
	fw := NewFlushWriter(&errWriter{}, 1<<20, time.Millisecond)
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
	fw := NewFlushWriter(rec, 1<<20, time.Hour) // only Close can flush this
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
	fw := NewFlushWriter(w, batch, time.Millisecond)
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
	fw := NewFlushWriter(io.Discard, 32<<10, 500*time.Microsecond)
	defer fw.Close()
	ev := Event{Ev: EvGranted, Diner: 3, ID: "a1b2c3-c12-345", T: 123456}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !fw.Send(&ev) {
				b.Fatal("send refused")
			}
		}
	})
}
