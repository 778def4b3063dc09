// Package wal is the crash-consistency substrate of the networked dining
// service: a checksummed, length-prefixed write-ahead log plus a snapshot
// store, which together move the service layer from crash-stop to
// crash-recovery. Callers append small self-describing records (the package
// never interprets payloads), group-commit them with a policy-controlled
// fsync discipline, and periodically cut a snapshot that bounds replay work.
//
// Durability model. Append only buffers; a background flusher writes batches
// and — under PolicyAlways — fsyncs them, so N concurrent appenders waiting
// on Sync share one fsync (group commit). Sync(lsn) blocks until record lsn
// is durable under the active policy: written and fsynced (PolicyAlways), or
// merely written with fsync left to the background cadence (PolicyInterval)
// or to the operating system (PolicyNever).
//
// Crash model. A crashed writer may leave a torn tail: a partially written
// frame, or garbage past the last flush. Recovery walks frames until the
// first one that is truncated, oversized, or fails its CRC, replays the
// valid prefix, and truncates the segment there — it never panics and never
// trusts bytes past the first invalid frame. Snapshots commit atomically by
// write-to-temp, fsync, rename, fsync-directory; a crash mid-snapshot leaves
// the previous generation intact and recovery falls back to it.
//
// Replay contract. A snapshot is cut by rotating to a fresh segment first
// and building the payload second, so the payload reflects every record of
// the older segments — but may also reflect a few records of the new one
// (appended between the cut and the build). Replay must therefore be
// idempotent: applying a record to state that already includes it must be a
// no-op. All lockproto journal records have this property.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Policy selects the fsync discipline.
type Policy int

const (
	// PolicyAlways: Sync returns only after the record is fsynced. Appends
	// are still batched — concurrent waiters share one fsync.
	PolicyAlways Policy = iota
	// PolicyInterval: records are fsynced on a background cadence; Sync
	// waits only for the write. A crash loses at most Interval of records.
	PolicyInterval
	// PolicyNever: the store never fsyncs; the OS page cache decides. A
	// machine crash can lose anything not yet written back.
	PolicyNever
)

// ParsePolicy maps the -fsync flag vocabulary onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "interval":
		return PolicyInterval, nil
	case "never":
		return PolicyNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (always|interval|never)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	default:
		return "never"
	}
}

// Options shapes a store.
type Options struct {
	Policy Policy
	// Interval is the background fsync cadence under PolicyInterval
	// (default 50ms).
	Interval time.Duration
	// Instruments, nil = not counted: every fsync the store issues, how long
	// it took, and how many records it made durable (the group-commit
	// batch). Handles from the caller's metrics registry; the store keeps no
	// counters of its own.
	Fsyncs          *metrics.Counter
	FsyncLat, Batch *metrics.Hist
}

// LSN identifies a record by its 1-based append position. LSNs are global
// across segment rotations.
type LSN int64

// Recovered is what Open found on disk.
type Recovered struct {
	Snapshot []byte   // latest valid snapshot payload; nil if none
	Records  [][]byte // valid records after that snapshot, in append order
	Gen      uint64   // generation of the chosen snapshot
	// TornBytes counts bytes dropped as unusable: the invalid tail of the
	// segment where replay stopped, plus any later segments that had to be
	// discarded because they sat past a corrupted one.
	TornBytes int64
	Segments  int // wal segments replayed (fully or partially)
}

// Store is a write-ahead log plus snapshot directory. Safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	gen      uint64 // active segment generation
	nextGen  uint64 // next rotation's generation (monotonic over stray files)
	lastSnap uint64 // newest committed snapshot generation
	pending  []byte // frames appended but not yet handed to the flusher
	appended LSN
	written  LSN
	durable  LSN
	inflight int // file I/O operations outside mu (flusher, interval sync)
	rotating bool
	closed   bool
	err      error // sticky I/O error; the store is dead once set

	flushDone chan struct{}
	stopSync  chan struct{}
}

// Open recovers the durable state under dir (creating it if needed) and
// returns a store appending after the last valid record. The active
// segment's torn tail, if any, is truncated on the spot.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var snapGens, walGens []uint64
	var maxGen uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // uncommitted snapshot attempt
			continue
		}
		prefix, g, ok := parseGen(name)
		if !ok {
			continue
		}
		if g > maxGen {
			maxGen = g
		}
		if prefix == "snap" {
			snapGens = append(snapGens, g)
		} else {
			walGens = append(walGens, g)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] }) // newest first
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })    // oldest first

	rec := &Recovered{}
	// The newest snapshot that validates wins; a corrupt one (torn write
	// that somehow survived the rename discipline, or external damage) is
	// skipped in favor of its predecessor and set aside under a .corrupt
	// name — preserved for forensics, but out of the recovery path so the
	// next boot converges to a clean directory.
	for _, g := range snapGens {
		path := filepath.Join(dir, snapName(g))
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if recs, _ := scanFrames(data); len(recs) > 0 {
			rec.Snapshot = recs[0]
			rec.Gen = g
			break
		}
		rec.TornBytes += int64(len(data))
		os.Rename(path, path+".corrupt")
	}

	s := &Store{dir: dir, opts: opts, gen: rec.Gen, nextGen: maxGen + 1,
		lastSnap: rec.Gen, flushDone: make(chan struct{}), stopSync: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)

	// Replay every segment at or after the snapshot generation, in order.
	// Only the last segment may legitimately have a torn tail (a crash mid
	// append); an invalid frame in an earlier segment means external
	// corruption, and everything past it — including whole later segments —
	// is untrusted and dropped so the append order stays consistent.
	active := rec.Gen
	activeValid := int64(0)
	corrupt := false
	for _, g := range walGens {
		if g < rec.Gen {
			continue
		}
		path := filepath.Join(dir, walName(g))
		if corrupt {
			if fi, err := os.Stat(path); err == nil {
				rec.TornBytes += fi.Size()
			}
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		recs, valid := scanFrames(data)
		rec.Records = append(rec.Records, recs...)
		rec.Segments++
		active, activeValid = g, valid
		if torn := int64(len(data)) - valid; torn > 0 {
			rec.TornBytes += torn
			corrupt = true
		}
	}

	// Open (or create) the active segment for append, truncated to its
	// valid prefix.
	f, err := os.OpenFile(filepath.Join(dir, walName(active)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(activeValid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(activeValid, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	s.f = f
	s.gen = active
	if active >= s.nextGen {
		s.nextGen = active + 1
	}
	s.appended = LSN(len(rec.Records))
	s.written, s.durable = s.appended, s.appended

	go s.flusher()
	if opts.Policy == PolicyInterval {
		go s.syncLoop()
	}
	return s, rec, nil
}

// Append buffers one record and returns its LSN. The write happens on the
// flusher's schedule; pair with Sync for durability.
func (s *Store) Append(payload []byte) (LSN, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if s.closed {
		return 0, fmt.Errorf("wal: append on closed store")
	}
	s.pending = appendFrame(s.pending, payload)
	s.appended++
	s.cond.Broadcast()
	return s.appended, nil
}

// Appended returns the LSN of the most recently appended record. Sync to it
// for a full barrier.
func (s *Store) Appended() LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Sync blocks until record lsn is durable under the store's policy:
// fsynced for PolicyAlways, written for the others.
func (s *Store) Sync(lsn LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil {
			return s.err
		}
		mark := s.written
		if s.opts.Policy == PolicyAlways {
			mark = s.durable
		}
		if mark >= lsn {
			return nil
		}
		if s.closed {
			return fmt.Errorf("wal: store closed before record %d was synced", lsn)
		}
		s.cond.Wait()
	}
}

// flusher is the single writer: it drains the pending buffer in batches and
// — under PolicyAlways — fsyncs each batch, waking every Sync waiter at
// once. One fsync therefore commits every record appended while the
// previous one was in flight: group commit.
func (s *Store) flusher() {
	defer close(s.flushDone)
	for {
		s.mu.Lock()
		for (len(s.pending) == 0 || s.rotating) && !s.closed && s.err == nil {
			s.cond.Wait()
		}
		if s.err != nil || (s.closed && len(s.pending) == 0) {
			s.mu.Unlock()
			return
		}
		buf, target, f, prevDurable := s.pending, s.appended, s.f, s.durable
		s.pending = nil
		s.inflight++
		s.mu.Unlock()

		_, werr := f.Write(buf)
		var serr error
		if werr == nil && s.opts.Policy == PolicyAlways {
			t0 := time.Now()
			serr = f.Sync()
			if serr == nil {
				s.observeSync(target-prevDurable, time.Since(t0))
			}
		}

		s.mu.Lock()
		s.inflight--
		switch {
		case werr != nil:
			s.err = werr
		case serr != nil:
			s.written = target
			s.err = serr
		default:
			s.written = target
			if s.opts.Policy == PolicyAlways {
				s.durable = target
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// syncLoop is the PolicyInterval background fsync cadence.
func (s *Store) syncLoop() {
	tick := time.NewTicker(s.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-tick.C:
		}
		s.mu.Lock()
		if s.closed || s.err != nil || s.durable == s.written || s.rotating {
			s.mu.Unlock()
			continue
		}
		f, target, prevDurable := s.f, s.written, s.durable
		s.inflight++
		s.mu.Unlock()
		t0 := time.Now()
		err := f.Sync()
		if err == nil {
			s.observeSync(target-prevDurable, time.Since(t0))
		}
		s.mu.Lock()
		s.inflight--
		if err == nil && target > s.durable {
			s.durable = target
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// rotate cuts the log to a fresh segment: pending records drain to the old
// file (fsynced unless PolicyNever), and every later append lands in the
// new one. Returns the new generation.
func (s *Store) rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if s.closed {
		return 0, fmt.Errorf("wal: rotate on closed store")
	}
	s.rotating = true
	defer func() {
		s.rotating = false
		s.cond.Broadcast()
	}()
	for s.inflight > 0 {
		s.cond.Wait()
	}
	// Drain what the flusher has not picked up; records appended during the
	// waits above are included — they precede the snapshot build that
	// follows a rotate, so the old segment plus the snapshot covers them.
	if len(s.pending) > 0 {
		if _, err := s.f.Write(s.pending); err != nil {
			s.err = err
			return 0, err
		}
		s.pending = nil
		s.written = s.appended
	}
	if s.opts.Policy != PolicyNever {
		prevDurable := s.durable
		t0 := time.Now()
		if err := s.f.Sync(); err != nil {
			s.err = err
			return 0, err
		}
		s.observeSync(s.written-prevDurable, time.Since(t0))
		s.durable = s.written
	}
	gen := s.nextGen
	f, err := os.OpenFile(filepath.Join(s.dir, walName(gen)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		s.err = err
		return 0, err
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		s.err = err
		return 0, err
	}
	s.f.Close()
	s.f = f
	s.gen = gen
	s.nextGen = gen + 1
	return gen, nil
}

// Snapshot cuts the log and installs a new snapshot generation: rotate to a
// fresh segment, then call build for the payload. Because the payload is
// built after the cut, it covers every record of the older segments (and
// possibly a few of the new one — see the package comment on replay
// idempotency). The snapshot commits atomically via rename; generations
// older than the previous snapshot are pruned afterwards.
func (s *Store) Snapshot(build func() []byte) error {
	gen, err := s.rotate()
	if err != nil {
		return err
	}
	payload := build()

	tmp := filepath.Join(s.dir, snapName(gen)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return s.fail(err)
	}
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := f.Close(); err != nil {
		return s.fail(err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName(gen))); err != nil {
		return s.fail(err)
	}
	if err := syncDir(s.dir); err != nil {
		return s.fail(err)
	}

	s.mu.Lock()
	keep := s.lastSnap // retain one previous snapshot generation as a fallback
	s.lastSnap = gen
	s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil // pruning is best-effort; the snapshot is committed
	}
	for _, e := range entries {
		if _, g, ok := parseGen(e.Name()); ok && g < keep {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	return nil
}

// fail records a sticky error.
func (s *Store) fail(err error) error {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return err
}

// Close drains pending records, fsyncs (unless PolicyNever), and closes the
// active segment. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.stopSync)
	<-s.flushDone

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil && s.opts.Policy != PolicyNever {
		prevDurable := s.durable
		t0 := time.Now()
		if err := s.f.Sync(); err != nil {
			s.err = err
		} else {
			s.observeSync(s.written-prevDurable, time.Since(t0))
			s.durable = s.written
		}
	}
	if cerr := s.f.Close(); cerr != nil && s.err == nil {
		s.err = cerr
	}
	s.cond.Broadcast()
	return s.err
}

// observeSync counts one completed fsync: records is the group-commit batch
// the call made durable (0 when the store re-synced an already-durable tail,
// e.g. at rotate or close).
func (s *Store) observeSync(records LSN, d time.Duration) {
	s.opts.Fsyncs.Inc()
	s.opts.FsyncLat.ObserveDuration(d)
	if records > 0 {
		s.opts.Batch.Observe(int64(records))
	}
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
