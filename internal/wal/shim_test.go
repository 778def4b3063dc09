package wal

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

// disk is the fake under the store's openFile hook. Every file it hands out
// is a real one, so the real Open can recover what a run left behind; what
// the fake adds is control over the system calls: it counts them, can hold
// the next fsync until released, fail every fsync, or crash at the k-th call
// — failing it and all later ones and cutting each file back to what its
// last fsync covered.
type disk struct {
	mu      sync.Mutex
	calls   int
	killAt  int  // crash at this call (1-based); 0 = never
	tear    bool // a crash keeps half of each file's unsynced bytes instead of none
	dead    bool
	syncErr error
	hold    *hold
	files   []*diskFile
}

// hold parks one fsync: entered closes when it arrives, it returns when
// release closes.
type hold struct{ entered, release chan struct{} }

var errCrashed = errors.New("disk: crashed")

// useDisk routes the package's file I/O through a fresh fake for the rest
// of the test.
func useDisk(t *testing.T) *disk {
	d := &disk{}
	real := openFile
	openFile = d.open
	t.Cleanup(func() { openFile = real })
	return d
}

// holdNextSync makes the next fsync block until the returned hold's release
// channel is closed.
func (d *disk) holdNextSync() *hold {
	h := &hold{entered: make(chan struct{}), release: make(chan struct{})}
	d.mu.Lock()
	d.hold = h
	d.mu.Unlock()
	return h
}

// step counts one system call and reports whether the disk has crashed, at
// this call or before.
func (d *disk) step() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls++
	if d.calls == d.killAt {
		d.dead = true
		for _, f := range d.files {
			lost := f.size - f.synced
			if d.tear {
				lost -= lost / 2
			}
			if lost > 0 {
				os.Truncate(f.name, f.size-lost)
			}
		}
	}
	if d.dead {
		return errCrashed
	}
	return nil
}

func (d *disk) open(name string, flag int, perm os.FileMode) (file, error) {
	if err := d.step(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	df := &diskFile{d: d, f: f, name: name}
	if fi, err := f.Stat(); err == nil && !fi.IsDir() {
		df.size, df.synced = fi.Size(), fi.Size()
	}
	d.mu.Lock()
	d.files = append(d.files, df)
	d.mu.Unlock()
	return df, nil
}

type diskFile struct {
	d            *disk
	f            *os.File
	name         string
	size, synced int64 // guarded by d.mu
}

func (f *diskFile) Write(p []byte) (int, error) {
	if err := f.d.step(); err != nil {
		return 0, err
	}
	n, err := f.f.Write(p)
	f.d.mu.Lock()
	f.size += int64(n)
	f.d.mu.Unlock()
	return n, err
}

func (f *diskFile) Sync() error {
	if err := f.d.step(); err != nil {
		return err
	}
	f.d.mu.Lock()
	h, serr := f.d.hold, f.d.syncErr
	f.d.hold = nil
	f.d.mu.Unlock()
	if h != nil {
		close(h.entered)
		<-h.release
	}
	if serr != nil {
		return serr
	}
	err := f.f.Sync()
	f.d.mu.Lock()
	f.synced = f.size
	f.d.mu.Unlock()
	return err
}

func (f *diskFile) Truncate(size int64) error {
	if err := f.d.step(); err != nil {
		return err
	}
	f.d.mu.Lock()
	f.size, f.synced = size, min(f.synced, size)
	f.d.mu.Unlock()
	return f.f.Truncate(size)
}

func (f *diskFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}

// Close always releases the descriptor, crashed or not.
func (f *diskFile) Close() error {
	err := f.d.step()
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// returns fails the test if fn has not returned within two seconds.
func returns(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return while an fsync was in flight", what)
	}
}

// TestNoLockAcrossDisk holds an fsync inside each of the store's three
// writers — a Sync call, rotate, the interval timer — and requires a
// concurrent Append, which is what a diner process calls, to return.
func TestNoLockAcrossDisk(t *testing.T) {
	barrier := func(s *Store) error { return s.Sync(s.Appended()) }
	for _, tc := range []struct {
		name   string
		policy Policy
		writer func(s *Store) error // leads to the held fsync
		want   []string             // records replayed afterwards
	}{
		{"sync", PolicyAlways, barrier, []string{"before", "during"}},
		// "before" is behind the cut; "during" arrived mid-rotate and belongs
		// to the new segment.
		{"rotate", PolicyAlways, func(s *Store) error { return s.Snapshot(func() []byte { return nil }) }, []string{"during"}},
		// The write arms the timer; the timer runs into the hold.
		{"interval", PolicyInterval, barrier, []string{"before", "during"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := useDisk(t)
			dir := t.TempDir()
			s, _ := openT(t, dir, Options{Policy: tc.policy})
			appendT(t, s, "before")
			h := d.holdNextSync()
			werr := make(chan error, 1)
			go func() { werr <- tc.writer(s) }()
			<-h.entered

			var err error
			returns(t, "Append", func() { _, err = s.Append([]byte("during")) })
			if err != nil {
				t.Fatal(err)
			}

			close(h.release)
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, rec := openT(t, dir, Options{})
			defer s2.Close()
			wantRecords(t, rec.Records, tc.want...)
		})
	}
}

// TestStickyFsyncError fails the fsync under a Sync leader: the leader, every
// caller queued behind it and every later call must see the error, and Close
// must return it.
func TestStickyFsyncError(t *testing.T) {
	boom := errors.New("disk on fire")
	d := useDisk(t)
	d.syncErr = boom
	s, _ := openT(t, t.TempDir(), Options{Policy: PolicyAlways})
	h := d.holdNextSync()

	const followers = 4
	errs := make(chan error, 1+followers)
	lsn := appendT(t, s, "leader")
	go func() { errs <- s.Sync(lsn) }()
	<-h.entered
	var appended sync.WaitGroup
	for i := 0; i < followers; i++ {
		appended.Add(1)
		go func(i int) {
			lsn, err := s.Append([]byte(fmt.Sprintf("follower-%d", i)))
			appended.Done()
			if err == nil {
				err = s.Sync(lsn) // queues on the I/O lock behind the leader
			}
			errs <- err
		}(i)
	}
	appended.Wait()
	close(h.release)
	for i := 0; i < 1+followers; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("caller %d: err = %v, want the fsync error", i, err)
		}
	}

	if _, err := s.Append([]byte("late")); !errors.Is(err, boom) {
		t.Errorf("Append after the error: %v", err)
	}
	if err := s.Sync(lsn); !errors.Is(err, boom) {
		t.Errorf("Sync after the error: %v", err)
	}
	if err := s.Snapshot(func() []byte { return nil }); !errors.Is(err, boom) {
		t.Errorf("Snapshot after the error: %v", err)
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Errorf("Close = %v, want the fsync error", err)
	}
}

// crashWorkload appends records "0", "1", … under PolicyAlways, syncing
// every other one, and cuts three snapshots. A snapshot's payload is the
// number of records appended before the cut, and its build callback appends
// and syncs one more — the record that lands in the fresh segment while the
// snapshot is not yet committed, as the committer's do in the service. It
// stops at the first error and reports how many records it appended and how
// many a nil Sync or Snapshot acknowledged.
func crashWorkload(dir string) (appended, acked int) {
	s, _, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		return 0, 0
	}
	defer s.Close()
	appendSync := func(sync bool) bool {
		lsn, err := s.Append([]byte(strconv.Itoa(appended)))
		if err != nil {
			return false
		}
		appended++
		if sync {
			if s.Sync(lsn) != nil {
				return false
			}
			acked = appended
		}
		return true
	}
	for i := 0; i < 12; i++ {
		if !appendSync(i%2 == 1) {
			return
		}
		if i%4 == 0 {
			n := appended
			if s.Snapshot(func() []byte { appendSync(true); return []byte(strconv.Itoa(n)) }) != nil {
				return
			}
			acked = max(acked, n)
		}
	}
	return
}

// TestCrashPoints crashes the disk at every system call of crashWorkload in
// turn and recovers with the real Open: the snapshot plus the replayed
// records must describe a gap-free, ordered prefix of what was appended that
// includes everything acknowledged.
func TestCrashPoints(t *testing.T) {
	real := openFile
	defer func() { openFile = real }()
	run := func(d *disk) (dir string, appended, acked int) {
		openFile = d.open
		defer func() { openFile = real }()
		dir = t.TempDir()
		appended, acked = crashWorkload(dir)
		return
	}
	count := &disk{}
	if _, appended, acked := run(count); appended != 15 || acked != 15 || count.calls < 60 {
		t.Fatalf("uncrashed workload: %d appended, %d acknowledged, %d system calls", appended, acked, count.calls)
	}
	for _, tear := range []bool{false, true} {
		for k := 1; k <= count.calls; k++ {
			dir, appended, acked := run(&disk{killAt: k, tear: tear})
			s, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("crash at call %d (tear=%v): recovery failed: %v", k, tear, err)
			}
			s.Close()
			have := 0 // records 0..have-1 are recovered
			if rec.Snapshot != nil {
				have, _ = strconv.Atoi(string(rec.Snapshot))
			}
			for i, r := range rec.Records {
				n, err := strconv.Atoi(string(r))
				if err != nil || n > have || (i > 0 && string(rec.Records[i-1]) != strconv.Itoa(n-1)) {
					t.Fatalf("crash at call %d (tear=%v): snapshot %q then records %q: gapped or out of order",
						k, tear, rec.Snapshot, rec.Records)
				}
				have = max(have, n+1)
			}
			if have < acked || have > appended {
				t.Fatalf("crash at call %d (tear=%v): recovered %d records, acknowledged %d, appended %d",
					k, tear, have, acked, appended)
			}
		}
	}
}
