package dinesvc

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockproto"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/wal"
)

// durable is the bridge between one in-memory table and its WAL: the
// session registry's journal hook, the fork table's ownership observer, and
// the janitor's snapshot trigger all land here. A nil *durable is the
// non-persistent table; every method tolerates it, so call sites need no
// guards.
//
// A WAL write error is fatal by design: a table that kept granting after
// losing its log would silently drop the very guarantees DataDir was asked
// to provide. What fatal means is the embedder's choice (Config.Fatalf —
// the dineserve binary exits, the library default panics).
type durable struct {
	store    *wal.Store
	sessions *lockproto.Sessions
	// snapEvery is the floor of the cut rule: the janitor cuts a snapshot
	// (and prunes old segments) once the records since the last cut reach
	// max(snapEvery, snapRows). Letting the interval grow with the snapshot
	// keeps checkpoint work O(1) per record however large the registry's
	// memory gets — ids with no counter cost a row each, for good — and
	// recovery still reads at most one snapshot plus as many records.
	snapEvery int64
	recsSince atomic.Int64
	snapRows  int64 // registry rows in the last snapshot; janitor-only

	fatalf func(format string, args ...any)

	mu    sync.Mutex
	forks map[[2]int]bool // directed (p,q) -> p's hold bit for edge {p,q}
	// clock is the table-tick watermark snapshots are stamped with; the
	// janitor refreshes it each pass so a recovered clock never runs
	// backwards past a snapshot cut.
	clock int64

	// Acks posted by after, waiting for the committer's next round.
	amu    sync.Mutex
	posted []func()
	wake   chan struct{} // cap 1: "posted is non-empty"; closed by close
	done   chan struct{} // committer exited

	// Registry handles, wired by instrument() before traffic starts.
	// nil-safe, so a durable built in a test without metrics still works.
	records   *metrics.Counter // journal records appended
	calls     *metrics.Counter // acks posted (grants + releases)
	rounds    *metrics.Counter // committer rounds: one Sync each
	snapshots *metrics.Counter // snapshots committed
	snapLat   *metrics.Hist    // rotate → snapshot committed
	snapBytes *metrics.Gauge   // last snapshot's payload
}

func newDurable(store *wal.Store, sessions *lockproto.Sessions, snapEvery int64,
	fatalf func(format string, args ...any)) *durable {
	d := &durable{
		store:     store,
		sessions:  sessions,
		snapEvery: snapEvery,
		fatalf:    fatalf,
		forks:     make(map[[2]int]bool),
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	go d.commit()
	return d
}

// instrument wires the durability counters into the table's registry slice.
// Called before the listener opens; a durable left uninstrumented just
// counts nothing.
func (d *durable) instrument(m *tableMetrics) {
	if d == nil {
		return
	}
	d.records, d.calls, d.rounds = m.walRecords, m.walBarriers, m.walSyncRounds
	d.snapshots, d.snapLat, d.snapBytes = m.walSnapshots, m.walSnapshotLat, m.walSnapshotBytes
}

func (d *durable) fatal(err error) {
	d.fatalf("wal: %v", err)
}

// recBufs recycles record encode buffers: the store copies what it is
// handed, but its checksum call makes a stack buffer escape.
var recBufs = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// append journals one record. It only buffers — the store never makes an
// appender wait on the disk — and durability comes from after.
func (d *durable) append(rec lockproto.Rec) {
	if d == nil {
		return
	}
	bp := recBufs.Get().(*[]byte)
	*bp = lockproto.AppendRec((*bp)[:0], &rec)
	_, err := d.store.Append(*bp)
	recBufs.Put(bp)
	if err != nil {
		d.fatal(err)
	}
	d.records.Inc()
	d.recsSince.Add(1)
}

// journal is the Sessions journal hook; it runs under the registry lock, so
// WAL order is registry apply order.
func (d *durable) journal(rec lockproto.Rec) { d.append(rec) }

// after runs fn once everything appended so far is durable (or written,
// under the weaker fsync policies). Every client-visible effect of a grant
// or a release goes through it, so an acknowledged transition is never lost
// to a crash. On a non-persistent table fn runs inline; otherwise it is
// posted to the table's committer and after returns at once — callers are
// diner processes, and one that waited out an fsync would miss its
// heartbeats for as long.
func (d *durable) after(fn func()) {
	if d == nil {
		fn()
		return
	}
	d.calls.Inc()
	d.amu.Lock()
	d.posted = append(d.posted, fn)
	d.amu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// commit is the table's committer, the one goroutine that waits on the WAL
// and — the store has no goroutine of its own — the one that writes it: take
// everything posted, Sync once to the newest record, which performs the
// write and the fsync right here, and run the acks in posting order. An ack is
// posted after its record is appended, so the append watermark read here
// covers the whole batch; posting order is kept across rounds, so
// released(k1) still reaches a connection before granted(k2). A round is
// one group commit: everything diner processes appended while the previous
// round was on the disk. calls/rounds expose the ratio.
func (d *durable) commit() {
	defer close(d.done)
	var batch []func()
	for range d.wake {
		d.amu.Lock()
		batch, d.posted = d.posted, batch[:0]
		d.amu.Unlock()
		if len(batch) == 0 {
			continue // the post behind this wake-up rode the previous round
		}
		if err := d.store.Sync(d.store.Appended()); err != nil {
			d.fatal(err)
		}
		d.rounds.Inc()
		for i, fn := range batch {
			fn()
			batch[i] = nil
		}
	}
}

// onFork is the forks.Config observer: mirror the hold bit and journal the
// move. Runs on protocol goroutines. p and q are the table's local proc
// ids — each table's WAL describes its own conflict graph, and the
// diner→table assignment (lockproto.TableOf) is pinned, so local ids are
// stable across restarts.
func (d *durable) onFork(p, q rt.ProcID, hold bool) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.forks[[2]int{int(p), int(q)}] = hold
	d.mu.Unlock()
	d.append(lockproto.Rec{K: lockproto.RecFork, P: int(p), Q: int(q), H: hold})
}

// tick journals the clock watermark and cuts a snapshot if enough records
// accumulated (see snapEvery). Called from the table's janitor, once per pass.
func (d *durable) tick(now int64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.clock = now
	d.mu.Unlock()
	d.append(lockproto.Rec{K: lockproto.RecTick, T: now})
	n := d.recsSince.Load()
	if n < d.snapEvery || n < d.snapRows {
		return
	}
	d.recsSince.Add(-n) // not Store(0): diner processes append meanwhile
	t0 := time.Now()
	if err := d.store.Snapshot(d.buildSnapshot); err != nil {
		d.fatal(err)
	}
	d.snapLat.ObserveDuration(time.Since(t0))
	d.snapshots.Inc()
}

// buildSnapshot serializes the full table state. The wal package calls it
// after rotating, so records already in the new segment may be re-described
// here — lockproto.Replay is idempotent against exactly that overlap.
func (d *durable) buildSnapshot() []byte {
	st := d.sessions.SnapshotState()
	d.mu.Lock()
	st.Watermark = d.clock
	for pq, hold := range d.forks {
		st.Forks = append(st.Forks, lockproto.ForkState{P: pq[0], Q: pq[1], Hold: hold})
	}
	d.mu.Unlock()
	payload := st.Encode()
	d.snapRows = int64(st.Rows())
	d.snapBytes.Set(int64(len(payload)))
	return payload
}

// close runs the acks still posted, stops the committer, then flushes and
// closes the store. Nothing may call after past this point: Drain gets here
// once the handlers, the janitor and the runtime are gone.
func (d *durable) close() error {
	if d == nil {
		return nil
	}
	close(d.wake)
	<-d.done
	return d.store.Close()
}
