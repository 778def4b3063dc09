package lockproto

import (
	"errors"
	"io"
	"sync"
	"time"
)

// FlushWriter coalesces a connection's outbound events into batched writes.
//
// The unbatched path pays one Write syscall per event; under load a single
// connection can receive bursts of events (grant + release acks interleaved
// with the suspect stream), and per-event writes make the kernel boundary
// the bottleneck. FlushWriter instead appends encoded events to a pending
// buffer and lets a per-connection flusher goroutine drain it: the first
// event of a burst opens a short coalescing window (MaxDelay), everything
// arriving inside the window rides the same Write, and a full buffer
// (MaxBatch) flushes immediately without waiting the window out. An idle
// connection costs nothing — the flusher blocks until the next event.
//
// Three bounds shape the batching, all enforced by tests:
//   - MaxBatch: once the pending buffer reaches this many bytes the flusher
//     is woken immediately instead of waiting the window out.
//   - MaxDelay: no event sits in the buffer longer than (roughly) this —
//     the flush deadline. TestFlushWriterDeadline pins it.
//   - backlogBatches: Send appends while the flusher is inside Write, so a
//     peer that stops reading would grow the buffer forever. Past
//     backlogBatches full batches the writer fails with ErrBacklog and Send
//     returns false; the owner closes the connection, which also unblocks
//     the stalled Write.
//
// Send order is write order: events from the connection reader, the diner
// processes (or a durable table's committer), and the watch forwarder
// serialize on the internal mutex.
type FlushWriter struct {
	w        io.Writer
	maxBatch int
	maxDelay time.Duration

	mu     sync.Mutex
	buf    []byte
	err    error
	closed bool
	kick   chan struct{} // wakes the flusher: buffer went non-empty or full
	done   chan struct{} // flusher exited

	pendingEvents int64

	// onFlush, if set, observes every socket write as it happens — the
	// writer's registry hook, so coalescing telemetry is visible mid-run.
	onFlush func(events, bytes int64)
}

// backlogBatches bounds the pending buffer at this many MaxBatch-sized
// batches (8 MiB at the default batch): two orders of magnitude beyond what
// a reading peer ever leaves queued, small enough that stalled connections
// cannot exhaust the server.
const backlogBatches = 256

// ErrBacklog is the sticky error of a writer whose peer stopped reading.
var ErrBacklog = errors.New("lockproto: flush backlog exceeded, peer is not reading")

// NewFlushWriter starts a coalescing writer over w. maxBatch is the byte
// threshold that triggers an immediate flush (<=0: 32KiB); maxDelay is the
// longest an event may sit buffered before it is written (<=0: 500µs).
func NewFlushWriter(w io.Writer, maxBatch int, maxDelay time.Duration) *FlushWriter {
	if maxBatch <= 0 {
		maxBatch = 32 << 10
	}
	if maxDelay <= 0 {
		maxDelay = 500 * time.Microsecond
	}
	f := &FlushWriter{
		w:        w,
		maxBatch: maxBatch,
		maxDelay: maxDelay,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	go f.run()
	return f
}

// Send enqueues one event. It returns false once the writer has failed
// (a write error, or ErrBacklog) or been closed — the same contract the
// per-event encoder had, which the watch forwarder uses to stop.
func (f *FlushWriter) Send(ev *Event) bool {
	f.mu.Lock()
	if f.err == nil && len(f.buf) >= backlogBatches*f.maxBatch {
		f.err = ErrBacklog
	}
	if f.err != nil || f.closed {
		f.mu.Unlock()
		return false
	}
	f.buf = AppendEvent(f.buf, ev)
	f.buf = append(f.buf, '\n')
	f.pendingEvents++
	wake := len(f.buf) >= f.maxBatch || f.pendingEvents == 1
	f.mu.Unlock()
	if wake {
		select {
		case f.kick <- struct{}{}:
		default:
		}
	}
	return true
}

// run is the per-connection flusher: wait for the buffer to go non-empty,
// give the rest of a burst MaxDelay to pile in (cut short by a full
// buffer), then write everything in one call.
func (f *FlushWriter) run() {
	defer close(f.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	var scratch []byte
	for {
		f.mu.Lock()
		for len(f.buf) == 0 && !f.closed && f.err == nil {
			f.mu.Unlock()
			<-f.kick
			f.mu.Lock()
			if f.closed && len(f.buf) == 0 {
				f.mu.Unlock()
				return
			}
		}
		if f.err != nil || (f.closed && len(f.buf) == 0) {
			f.mu.Unlock()
			return
		}
		closed := f.closed
		full := len(f.buf) >= f.maxBatch
		f.mu.Unlock()

		// Coalescing window: only while the connection is live and the
		// buffer still has room — a closing or full writer drains now.
		if !closed && !full {
			timer.Reset(f.maxDelay)
			select {
			case <-timer.C:
			case <-f.kick: // buffer hit MaxBatch (or Close): flush early
				if !timer.Stop() {
					<-timer.C
				}
			}
		}

		f.mu.Lock()
		batch := f.buf
		events := f.pendingEvents
		f.buf = scratch[:0]
		f.pendingEvents = 0
		f.mu.Unlock()
		if len(batch) == 0 {
			continue
		}

		_, err := f.w.Write(batch)
		if err == nil {
			if hook := f.hook(); hook != nil {
				hook(events, int64(len(batch)))
			}
		}
		scratch = batch[:0]

		f.mu.Lock()
		if err != nil && f.err == nil {
			f.err = err
		}
		stop := f.err != nil || (f.closed && len(f.buf) == 0)
		f.mu.Unlock()
		if stop {
			return
		}
	}
}

// Close flushes anything still buffered and stops the flusher. Safe to call
// more than once; returns the writer's sticky error, if any.
func (f *FlushWriter) Close() error {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
	}
	f.mu.Unlock()
	select {
	case f.kick <- struct{}{}:
	default:
	}
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// OnFlush installs fn as the per-write observer: it is called once per
// successful socket write with the number of events and bytes the write
// carried. Install before traffic (fn is read under the writer's lock; a
// cheap atomic-counter hook is the intended shape).
func (f *FlushWriter) OnFlush(fn func(events, bytes int64)) {
	f.mu.Lock()
	f.onFlush = fn
	f.mu.Unlock()
}

// hook reads the observer under the lock.
func (f *FlushWriter) hook() func(events, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.onFlush
}
