package lockproto

import (
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/metrics"
)

// FlushWriter coalesces a connection's outbound events into batched writes
// without ever holding one back: it is self-clocking, the discipline the
// durable committer and the WAL under it already follow.
//
// Send appends the encoded event to a pending buffer and, when that made the
// buffer non-empty, wakes the per-connection flusher goroutine; the flusher
// takes everything pending and writes it at once. An event on an idle
// connection is therefore on the wire one goroutine wake-up after Send, and
// coalescing happens only behind an in-flight Write: whatever arrives while
// the socket is busy (grant and release acks interleaved with the suspect
// stream) forms the next batch and rides one Write. There is no timer and no
// window, so a grant never waits on a clock. An idle connection costs
// nothing — the flusher blocks until the next event.
//
// Send never writes inline: its callers are diner processes and the durable
// committer, which must not block on a client's socket.
//
// One bound, backlogBatches: Send appends while the flusher is inside Write,
// so a peer that stops reading would grow the buffer forever. Past
// backlogBatches batches of maxBatch bytes the writer fails with ErrBacklog
// and Send returns false; the owner closes the connection, which also
// unblocks the stalled Write.
//
// Send order is write order: events from the connection reader, the diner
// processes (or a durable table's committer), and the suspect feeds
// serialize on the internal mutex.
type FlushWriter struct {
	w        io.Writer
	maxBatch int

	mu     sync.Mutex
	buf    []byte
	err    error
	closed bool
	kick   chan struct{} // wakes the flusher: buffer went non-empty, or Close
	done   chan struct{} // flusher exited

	pendingEvents int64

	// Writes, Events and Bytes count every socket write as it happens — the
	// writes, the events they carried, their bytes — so coalescing telemetry
	// is visible mid-run. Registry handles, nil = not counted; set them
	// before the first Send (only the flusher reads them).
	Writes, Events, Bytes *metrics.Counter
}

// backlogBatches bounds the pending buffer at this many maxBatch-sized
// batches (8 MiB at the default batch): two orders of magnitude beyond what
// a reading peer ever leaves queued, small enough that stalled connections
// cannot exhaust the server.
const backlogBatches = 256

// ErrBacklog is the sticky error of a writer whose peer stopped reading.
var ErrBacklog = errors.New("lockproto: flush backlog exceeded, peer is not reading")

// NewFlushWriter starts a self-clocking writer over w. maxBatch is the unit
// of the backlog bound (<=0: 32KiB). The third argument, once the coalescing
// window, is ignored; kept for bench/ until a benchmark PR drops it.
func NewFlushWriter(w io.Writer, maxBatch int, _ time.Duration) *FlushWriter {
	if maxBatch <= 0 {
		maxBatch = 32 << 10
	}
	f := &FlushWriter{
		w:        w,
		maxBatch: maxBatch,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	go f.run()
	return f
}

// Send enqueues one event. It returns false once the writer has failed
// (a write error, or ErrBacklog) or been closed — the same contract the
// per-event encoder had, which a suspect feed uses to drop a watcher.
func (f *FlushWriter) Send(ev *Event) bool {
	f.mu.Lock()
	if f.err == nil && len(f.buf) >= backlogBatches*f.maxBatch {
		f.err = ErrBacklog
	}
	if f.err != nil || f.closed {
		f.mu.Unlock()
		return false
	}
	wake := len(f.buf) == 0
	f.buf = AppendEvent(f.buf, ev)
	f.buf = append(f.buf, '\n')
	f.pendingEvents++
	f.mu.Unlock()
	if wake {
		f.wake()
	}
	return true
}

// wake nudges the flusher; a token already waiting serves as well.
func (f *FlushWriter) wake() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// run is the per-connection flusher: take everything pending and write it
// in one call; block only while there is nothing to write.
func (f *FlushWriter) run() {
	defer close(f.done)
	var scratch []byte
	for {
		f.mu.Lock()
		if f.err != nil || (f.closed && len(f.buf) == 0) {
			f.mu.Unlock()
			return
		}
		if len(f.buf) == 0 {
			f.mu.Unlock()
			<-f.kick
			continue
		}
		batch, events := f.buf, f.pendingEvents
		f.buf, f.pendingEvents = scratch[:0], 0
		f.mu.Unlock()

		_, err := f.w.Write(batch)
		scratch = batch[:0]
		if err != nil {
			f.mu.Lock()
			if f.err == nil {
				f.err = err
			}
			f.mu.Unlock()
			return
		}
		f.Writes.Inc()
		f.Events.Add(events)
		f.Bytes.Add(int64(len(batch)))
	}
}

// Close flushes anything still buffered and stops the flusher. Safe to call
// more than once; returns the writer's sticky error, if any.
func (f *FlushWriter) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.wake()
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
