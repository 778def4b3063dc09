package lockproto

import (
	"errors"
	"io"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// FlushWriter coalesces a connection's outbound events into batched writes
// without ever holding one back: it is self-clocking, the discipline the
// durable committer and the WAL under it already follow.
//
// Send appends the encoded event to a pending buffer and never writes. Two
// parties write, one batch at a time under the writing claim:
//
//   - The owner, the connection's reader. Hold marks that it is handling a
//     request whose replies it will write; Flush ends the hold and, when no
//     batch is out, takes everything pending and makes one non-blocking
//     write itself. Only what the socket refuses goes to the flusher. A
//     reply produced on the reader (a grant run inline by the diner's step,
//     a release ack, an info line) is therefore on the wire with no
//     goroutine wake-up at all.
//   - The per-connection flusher goroutine, the only writer that ever blocks
//     on the socket. Send wakes it when it made the buffer non-empty while no
//     hold and no write was in flight: an event from a diner process, the
//     durable committer or a suspect feed on an idle connection is on the
//     wire one wake-up after Send.
//
// Coalescing happens only behind a hold or an in-flight write: whatever
// arrives meanwhile (grant and release acks interleaved with the suspect
// stream) forms the next batch and rides one write. There is no timer and no
// window, so a grant never waits on a clock. An idle connection costs
// nothing — the flusher blocks until the next event.
//
// One bound, backlogBatches: Send appends while a write is in flight, so a
// peer that stops reading would grow the buffer forever. Past backlogBatches
// batches of maxBatch bytes the writer fails with ErrBacklog and Send
// returns false; the connection is then closed, which also unblocks the
// stalled Write.
//
// Send order is write order: events from the connection reader, the diner
// processes (or a durable table's committer), and the suspect feeds
// serialize on the internal mutex, and a refused tail goes back to the head
// of the buffer.
type FlushWriter struct {
	w        io.Writer
	raw      syscall.RawConn // w's, when w is a syscall.Conn: the owner's try-write
	maxBatch int

	mu      sync.Mutex
	buf     []byte
	spare   []byte // the other buffer, nil while its batch is out
	err     error
	closed  bool
	held    bool          // the owner is handling a request; its Flush follows
	writing bool          // a batch is out, in the flusher's Write or the owner's try-write
	kick    chan struct{} // wakes the flusher
	done    chan struct{} // flusher exited

	pendingEvents int64

	// The owner's try-write: its batch and result live here so that tryFn,
	// the RawConn callback, is one method value per writer rather than a
	// closure per write.
	try    []byte
	tryN   int
	tryErr error
	tryFn  func(fd uintptr) bool

	// Writes, Events and Bytes count every socket write as it happens — the
	// writes, the events they carried, their bytes — so coalescing telemetry
	// is visible mid-run. Registry handles, nil = not counted; set them
	// before the first Send. An event split by a short write is counted
	// with the write that finishes it.
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
	if sc, ok := w.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			f.raw = raw
			f.tryFn = f.tryWrite
		}
	}
	go f.run()
	return f
}

// Send enqueues one event. It returns false once the writer has failed
// (a write error, or ErrBacklog) or been closed — the same contract the
// per-event encoder had, which a suspect feed uses to drop a watcher.
//
// No wake-up is lost. Send wakes the flusher only when it made the buffer
// non-empty with no hold and no write in flight. Every other way for the
// buffer to be non-empty while nothing is held or written happens under mu
// and is followed by its own wake-up or write: Flush ends a hold and then
// writes or wakes; the owner ends its try-write and then wakes for
// whatever arrived meanwhile; the flusher ends its Write and re-reads the
// buffer before it waits again, leaving it to Flush if it finds a hold. So
// a Send that skips the wake-up, because the buffer was already non-empty
// or because a hold or a write was in flight, appended under mu before
// that party's check under mu and is seen by it. The flusher re-reads the
// buffer after every token it takes, and the token channel keeps one
// token, so a wake-up sent before it waits is not lost either.
func (f *FlushWriter) Send(ev *Event) bool {
	f.mu.Lock()
	if f.err == nil && len(f.buf) >= backlogBatches*f.maxBatch {
		f.err = ErrBacklog
	}
	if f.err != nil || f.closed {
		f.mu.Unlock()
		return false
	}
	wake := len(f.buf) == 0 && !f.held && !f.writing
	f.buf = AppendEvent(f.buf, ev)
	f.buf = append(f.buf, '\n')
	f.pendingEvents++
	f.mu.Unlock()
	if wake {
		f.wake()
	}
	return true
}

// Hold marks the owner as handling a request: until its Flush, Send leaves
// the write to Flush rather than wake the flusher.
func (f *FlushWriter) Hold() {
	f.mu.Lock()
	f.held = true
	f.mu.Unlock()
}

// Flush ends the owner's hold. With no write in flight and a socket
// underneath, it writes everything pending itself, in one non-blocking
// write: whatever the socket refuses goes back to the head of the buffer
// for the flusher. Otherwise it wakes the flusher for anything pending,
// unless a write is in flight, whose writer re-reads the buffer when it is
// done.
func (f *FlushWriter) Flush() {
	f.mu.Lock()
	f.held = false
	if len(f.buf) == 0 || f.writing || f.err != nil {
		f.mu.Unlock()
		return
	}
	if f.raw == nil {
		f.mu.Unlock()
		f.wake()
		return
	}
	batch, events := f.take()
	f.mu.Unlock()

	f.try, f.tryN, f.tryErr = batch, 0, nil
	err := f.raw.Write(f.tryFn)
	n := max(f.tryN, 0)
	if err == nil && f.tryErr != syscall.EAGAIN && f.tryErr != syscall.EINTR {
		err = f.tryErr
	}
	f.try = nil
	if n > 0 {
		f.Writes.Inc()
		f.Bytes.Add(int64(n))
	}

	f.mu.Lock()
	f.writing = false
	switch {
	case err != nil:
		if f.err == nil {
			f.err = err
		}
		f.spare = batch[:0]
	case n == len(batch):
		f.Events.Add(events)
		f.spare = batch[:0]
	default:
		// The refused tail leads, ahead of what was sent meanwhile; its
		// events are counted by the write that finishes them.
		rest := copy(batch, batch[n:])
		batch = append(batch[:rest], f.buf...)
		f.buf, f.spare = batch, f.buf[:0]
		f.pendingEvents += events
	}
	wake := len(f.buf) > 0 || f.closed || f.err != nil
	f.mu.Unlock()
	if wake {
		f.wake()
	}
}

// tryWrite is the owner's RawConn callback: one write(2), never a wait for
// the socket to become writable.
func (f *FlushWriter) tryWrite(fd uintptr) bool {
	f.tryN, f.tryErr = syscall.Write(int(fd), f.try)
	return true
}

// take claims everything pending as the batch to write. Called with mu held.
func (f *FlushWriter) take() ([]byte, int64) {
	batch, events := f.buf, f.pendingEvents
	f.buf, f.spare, f.pendingEvents = f.spare[:0], nil, 0
	f.writing = true
	return batch, events
}

// wake nudges the flusher; a token already waiting serves as well.
func (f *FlushWriter) wake() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// run is the per-connection flusher: take everything pending and write it
// in one call; block while there is nothing to write, or the owner holds
// the writer or has its try-write out — its Flush writes or wakes.
func (f *FlushWriter) run() {
	defer close(f.done)
	for {
		f.mu.Lock()
		if f.err != nil || (f.closed && len(f.buf) == 0 && !f.writing) {
			f.mu.Unlock()
			return
		}
		if len(f.buf) == 0 || f.writing || f.held && !f.closed {
			f.mu.Unlock()
			<-f.kick
			continue
		}
		batch, events := f.take()
		f.mu.Unlock()

		_, err := f.w.Write(batch)
		f.mu.Lock()
		f.writing = false
		f.spare = batch[:0]
		if err != nil && f.err == nil {
			f.err = err
		}
		f.mu.Unlock()
		if err != nil {
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
