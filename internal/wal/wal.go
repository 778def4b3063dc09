// Package wal is the crash-consistency substrate of the networked dining
// service: a checksummed, length-prefixed write-ahead log plus a snapshot
// store, which together move the service layer from crash-stop to
// crash-recovery. Callers append small self-describing records (the package
// never interprets payloads), group-commit them with a policy-controlled
// fsync discipline, and periodically cut a snapshot that bounds replay work.
//
// Durability model. Append only buffers, and never waits on the disk. The
// store runs no goroutine of its own: the caller of Sync is the writer. It
// takes the I/O lock, swaps the buffer out, writes it and — under
// PolicyAlways — fsyncs it; callers that arrive meanwhile queue on the lock
// and, once through, find their record covered by the batch of whoever went
// before them, so N concurrent appenders waiting on Sync share one fsync
// (group commit). Sync(lsn) returns once record lsn is durable under the
// active policy: written and fsynced (PolicyAlways), or merely written, with
// the fsync left to a timer the write arms (PolicyInterval) or to the
// operating system (PolicyNever). A record nobody Syncs is written by the
// next Sync, snapshot or Close.
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
	// PolicyInterval: Sync waits only for the write; the first write after
	// an fsync arms the next one, syncInterval later. A crash loses at most
	// that much of what Sync acknowledged.
	PolicyInterval
	// PolicyNever: the store never fsyncs; the OS page cache decides. A
	// machine crash can lose anything not yet written back.
	PolicyNever
)

// syncInterval is the PolicyInterval fsync cadence.
const syncInterval = 50 * time.Millisecond

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

// file is what the store needs of a segment, a snapshot or a directory
// handle. Tests substitute a fake through openFile to block, fail or crash
// the disk; nothing else sets it.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

var openFile = func(name string, flag int, perm os.FileMode) (file, error) {
	return os.OpenFile(name, flag, perm)
}

// Store is a write-ahead log plus snapshot directory. Safe for concurrent
// use.
//
// Two locks, io before mu. io serialises file I/O: whoever holds it — a Sync
// caller, rotate, the interval fsync, Close — is the writer. mu guards the
// in-memory state and is never held across a system call, so Append never
// waits on the disk. rotate holds io across two fsyncs and a file create (a
// millisecond or two); the only goroutine that can queue behind it is one
// that called Sync — in the service, the table's committer, never a diner.
type Store struct {
	dir  string
	opts Options

	io    sync.Mutex
	f     file   // active segment
	spare []byte // the buffer the last flush wrote, reused as the next pending

	mu       sync.Mutex
	nextGen  uint64 // next rotation's generation (monotonic over stray files)
	lastSnap uint64 // newest committed snapshot generation
	pending  []byte // frames appended but not yet written
	appended LSN
	written  LSN
	durable  LSN
	timer    *time.Timer // the PolicyInterval fsync, armed by the first unsynced write
	closed   bool
	err      error // sticky I/O error; the store is dead once set
}

// Open recovers the durable state under dir (creating it if needed) and
// returns a store appending after the last valid record. What to load and
// what to drop is Inspect's decision; Open applies it: uncommitted snapshot
// attempts are removed, corrupt snapshots newer than the chosen one are set
// aside under a .corrupt name (preserved for forensics, out of the recovery
// path so the next boot converges to a clean directory), segments past a
// tear are removed, and the active segment is truncated to its valid prefix.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rep, err := Inspect(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range rep.Strays {
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
	rec := &Recovered{Snapshot: rep.Snapshot, Records: rep.Records, Gen: rep.Gen, TornBytes: rep.TornBytes}
	maxGen := rep.Gen
	for _, sn := range rep.Snapshots {
		maxGen = max(maxGen, sn.Gen)
		if sn.Torn && (rep.Snapshot == nil || sn.Gen > rep.Gen) {
			path := filepath.Join(dir, sn.Name)
			os.Rename(path, path+".corrupt")
		}
	}
	active, activeValid := rep.Gen, int64(0)
	for _, seg := range rep.Segments {
		maxGen = max(maxGen, seg.Gen)
		switch {
		case seg.Replayed:
			rec.Segments++
			active, activeValid = seg.Gen, seg.ValidBytes
		case seg.Gen >= rep.Gen:
			os.Remove(filepath.Join(dir, seg.Name))
		}
	}

	f, err := openFile(filepath.Join(dir, walName(active)), os.O_RDWR|os.O_CREATE, 0o644)
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
	n := LSN(len(rec.Records))
	return &Store{dir: dir, opts: opts, f: f, nextGen: maxGen + 1, lastSnap: rep.Gen,
		appended: n, written: n, durable: n}, rec, nil
}

// Append buffers one record and returns its LSN. Nothing is written until a
// Sync, a snapshot or Close; pair with Sync for durability.
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
// fsynced for PolicyAlways, written for the others. The caller that finds
// io free is the leader and flushes everything appended so far; the callers
// that queued behind it find their record covered and return.
func (s *Store) Sync(lsn LSN) error {
	if done, err := s.covered(lsn); done {
		return err
	}
	s.io.Lock()
	defer s.io.Unlock()
	if done, err := s.covered(lsn); done {
		return err
	}
	return s.flush(s.opts.Policy == PolicyAlways)
}

// covered reports whether Sync(lsn) has its answer already.
func (s *Store) covered(lsn LSN) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mark := s.written
	if s.opts.Policy == PolicyAlways {
		mark = s.durable
	}
	switch {
	case s.err != nil:
		return true, s.err
	case mark >= lsn:
		return true, nil
	case s.closed:
		return true, fmt.Errorf("wal: store closed before record %d was synced", lsn)
	}
	return false, nil
}

// flush writes every record appended so far to the active segment and, if
// fsync is set, makes them durable. The caller holds io; the buffer is
// swapped out under mu and the system calls run outside it.
func (s *Store) flush(fsync bool) error {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return s.err
	}
	buf, target, prevWritten, prevDurable := s.pending, s.appended, s.written, s.durable
	s.pending = s.spare[:0]
	s.mu.Unlock()

	var werr, serr error
	if len(buf) > 0 {
		_, werr = s.f.Write(buf)
	}
	s.spare = buf
	if werr == nil && fsync {
		t0 := time.Now()
		if serr = s.f.Sync(); serr == nil {
			s.observeSync(target-prevDurable, time.Since(t0))
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case werr != nil:
		s.err = werr
	case serr != nil:
		s.written = target
		s.err = serr
	case fsync:
		s.written, s.durable = target, target
	default:
		s.written = target
		if s.opts.Policy == PolicyInterval && prevWritten == prevDurable && target > prevWritten {
			s.arm()
		}
	}
	return s.err
}

// arm schedules the interval fsync; the caller holds mu. The first write
// after an fsync arms it and the fsync disarms it, so an idle store never
// wakes.
func (s *Store) arm() {
	if s.timer == nil {
		s.timer = time.AfterFunc(syncInterval, s.intervalSync)
	} else {
		s.timer.Reset(syncInterval)
	}
}

// intervalSync runs on the timer: fsync what was written since the last one,
// unless a rotate or Close already did.
func (s *Store) intervalSync() {
	s.io.Lock()
	defer s.io.Unlock()
	s.mu.Lock()
	idle := s.closed || s.durable == s.written
	s.mu.Unlock()
	if !idle {
		s.flush(true) // an error is sticky; the next Append or Sync reports it
	}
}

// rotate cuts the log to a fresh segment: pending records drain to the old
// file, which is fsynced (unless PolicyNever) before the new one is created
// and the directory synced; every later flush lands in the new one. Records
// appended while rotate runs belong to the new segment — they precede the
// snapshot build that follows, which replay's idempotency covers. Returns
// the new generation.
func (s *Store) rotate() (uint64, error) {
	s.io.Lock()
	defer s.io.Unlock()
	s.mu.Lock()
	gen, closed := s.nextGen, s.closed
	s.mu.Unlock()
	if closed {
		return 0, fmt.Errorf("wal: rotate on closed store")
	}
	if err := s.flush(s.opts.Policy != PolicyNever); err != nil {
		return 0, err
	}
	f, err := openFile(filepath.Join(s.dir, walName(gen)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return 0, s.fail(err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return 0, s.fail(err)
	}
	s.f.Close()
	s.f = f
	s.mu.Lock()
	s.nextGen = gen + 1
	s.mu.Unlock()
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
	if err := s.commitSnapshot(gen, build()); err != nil {
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

// commitSnapshot writes generation gen's snapshot: temp file, fsync, rename,
// fsync the directory.
func (s *Store) commitSnapshot(gen uint64, payload []byte) error {
	tmp := filepath.Join(s.dir, snapName(gen)+".tmp")
	f, err := openFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(appendFrame(nil, payload))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, snapName(gen)))
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	return err
}

// fail records a sticky error.
func (s *Store) fail(err error) error {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	return err
}

// Close drains pending records, fsyncs (unless PolicyNever), and closes the
// active segment. Further appends fail.
func (s *Store) Close() error {
	s.io.Lock()
	defer s.io.Unlock()
	s.mu.Lock()
	err, closed := s.err, s.closed
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.mu.Unlock()
	if closed {
		return err
	}
	err = s.flush(s.opts.Policy != PolicyNever)
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = s.fail(cerr)
	}
	return err
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
	d, err := openFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
