package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func openT(t testing.TB, dir string, opts Options) (*Store, *Recovered) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

func appendT(t testing.TB, s *Store, payload string) LSN {
	t.Helper()
	lsn, err := s.Append([]byte(payload))
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	return lsn
}

func wantRecords(t *testing.T, got [][]byte, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d (%q)", len(got), len(want), want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// frameSize is the encoded size of a payload of n bytes.
func frameSize(n int) int64 { return int64(headerSize + n) }

// activeSegment returns the path of the newest wal segment in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best := ""
	var bestGen uint64
	for _, e := range entries {
		if prefix, g, ok := parseGen(e.Name()); ok && prefix == "wal" && (best == "" || g > bestGen) {
			best, bestGen = e.Name(), g
		}
	}
	if best == "" {
		t.Fatal("no wal segment found")
	}
	return filepath.Join(dir, best)
}

func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openT(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	appendT(t, s, "a")
	appendT(t, s, "b")
	lsn := appendT(t, s, "c")
	if err := s.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := openT(t, dir, Options{})
	defer s2.Close()
	wantRecords(t, rec2.Records, "a", "b", "c")
	if rec2.TornBytes != 0 {
		t.Errorf("clean log reports %d torn bytes", rec2.TornBytes)
	}
}

func TestTornTailTruncatedAndAppendable(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, "one")
	appendT(t, s, "two")
	s.Close()

	// A crashed writer's torn tail: garbage past the last complete frame.
	f, err := os.OpenFile(activeSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	f.Close()

	s2, rec := openT(t, dir, Options{})
	wantRecords(t, rec.Records, "one", "two")
	if rec.TornBytes != 5 {
		t.Errorf("TornBytes = %d, want 5", rec.TornBytes)
	}
	// The tail was truncated, so the segment must be cleanly appendable.
	appendT(t, s2, "three")
	s2.Close()

	s3, rec3 := openT(t, dir, Options{})
	defer s3.Close()
	wantRecords(t, rec3.Records, "one", "two", "three")
	if rec3.TornBytes != 0 {
		t.Errorf("second recovery still reports %d torn bytes", rec3.TornBytes)
	}
}

func TestMidFrameTruncation(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, "first")
	appendT(t, s, "second")
	s.Close()

	path := activeSegment(t, dir)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	wantRecords(t, rec.Records, "first")
	if rec.TornBytes == 0 {
		t.Error("truncated frame not reported as torn")
	}
}

func TestBitFlipStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, "aaaa")
	appendT(t, s, "bbbb")
	appendT(t, s, "cccc")
	s.Close()

	path := activeSegment(t, dir)
	data, _ := os.ReadFile(path)
	data[int(frameSize(4))+headerSize+1] ^= 0x40 // payload byte of record 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	// Replay must stop at the damaged record: nothing past it is trusted.
	wantRecords(t, rec.Records, "aaaa")
	if want := 2 * frameSize(4); rec.TornBytes != want {
		t.Errorf("TornBytes = %d, want %d", rec.TornBytes, want)
	}
}

func TestSnapshotCutAndFallback(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, "pre1")
	appendT(t, s, "pre2")
	if err := s.Snapshot(func() []byte { return []byte("SNAP1") }); err != nil {
		t.Fatal(err)
	}
	appendT(t, s, "post1")
	if err := s.Snapshot(func() []byte { return []byte("SNAP2") }); err != nil {
		t.Fatal(err)
	}
	appendT(t, s, "post2")
	s.Close()

	s2, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "SNAP2" {
		t.Fatalf("snapshot = %q, want SNAP2", rec.Snapshot)
	}
	wantRecords(t, rec.Records, "post2")
	s2.Close()

	// Simulate a crash that destroyed the newest snapshot: recovery must
	// fall back to the previous generation and replay both segments.
	var snap2 string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if prefix, g, ok := parseGen(e.Name()); ok && prefix == "snap" && g == rec.Gen {
			snap2 = e.Name()
		}
	}
	if snap2 == "" {
		t.Fatal("newest snapshot file not found")
	}
	if err := os.Remove(filepath.Join(dir, snap2)); err != nil {
		t.Fatal(err)
	}
	s3, rec3 := openT(t, dir, Options{})
	defer s3.Close()
	if string(rec3.Snapshot) != "SNAP1" {
		t.Fatalf("fallback snapshot = %q, want SNAP1", rec3.Snapshot)
	}
	wantRecords(t, rec3.Records, "post1", "post2")
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, "r1")
	if err := s.Snapshot(func() []byte { return []byte("GOOD") }); err != nil {
		t.Fatal(err)
	}
	appendT(t, s, "r2")
	if err := s.Snapshot(func() []byte { return []byte("BAD") }); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Damage the newest snapshot's payload so its CRC fails.
	entries, _ := os.ReadDir(dir)
	var newest string
	var newestGen uint64
	for _, e := range entries {
		if prefix, g, ok := parseGen(e.Name()); ok && prefix == "snap" && g >= newestGen {
			newest, newestGen = e.Name(), g
		}
	}
	path := filepath.Join(dir, newest)
	data, _ := os.ReadFile(path)
	data[headerSize] ^= 0xff
	os.WriteFile(path, data, 0o644)

	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if string(rec.Snapshot) != "GOOD" {
		t.Fatalf("snapshot = %q, want the GOOD fallback", rec.Snapshot)
	}
	wantRecords(t, rec.Records, "r2")
	if rec.TornBytes == 0 {
		t.Error("corrupt snapshot not counted as torn bytes")
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	var fsyncs metrics.Counter
	s, _ := openT(t, dir, Options{Policy: PolicyAlways, Fsyncs: &fsyncs})
	const workers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := s.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := s.Sync(lsn); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Group commit by measurement: appenders that queued behind a leader's
	// fsync were covered by the next one, together.
	if n := fsyncs.Value(); n == 0 || n >= workers*each {
		t.Errorf("%d fsyncs for %d synced appends, want fewer fsyncs than records", n, workers*each)
	}
	s.Close()

	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if len(rec.Records) != workers*each {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), workers*each)
	}
	seen := make(map[string]bool)
	for _, r := range rec.Records {
		seen[string(r)] = true
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			if !seen[fmt.Sprintf("w%d-%d", w, i)] {
				t.Fatalf("record w%d-%d lost", w, i)
			}
		}
	}
}

func TestIntervalPolicySyncs(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Policy: PolicyInterval})
	lsn := appendT(t, s, "x")
	if err := s.Sync(lsn); err != nil { // waits for the write only
		t.Fatal(err)
	}
	// The timer that write armed must advance durability without Close's help.
	deadline := time.Now().Add(2 * time.Second)
	for durableLSN(s) < lsn {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never advanced durability")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Close()
}

func durableLSN(s *Store) LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// TestStoreStartsNoGoroutines pins that the store has no goroutine of its
// own: none after Open, none while it is written to, none once the interval
// timer has fired (and it must fire once, not re-arm), none after Close.
func TestStoreStartsNoGoroutines(t *testing.T) {
	settle := func(when string, base int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before Open", when, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, pol := range []Policy{PolicyAlways, PolicyInterval, PolicyNever} {
		t.Run(pol.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			s, _ := openT(t, t.TempDir(), Options{Policy: pol})
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("Open started %d goroutines", n-base)
			}
			var lsn LSN
			for i := 0; i < 1000; i++ {
				lsn = appendT(t, s, "record")
				if err := s.Sync(lsn); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(3 * syncInterval)
			settle("idle", base)
			if d := durableLSN(s); pol == PolicyInterval && d != lsn {
				t.Errorf("idle interval store: durable = %d, want %d (the timer did not fire)", d, lsn)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			settle("closed", base)
		})
	}
}

// sameRecovery fails the test unless Open loaded exactly what Inspect said
// recovery would: generation, snapshot, records and torn bytes.
func sameRecovery(t testing.TB, rep *Report, rec *Recovered) {
	t.Helper()
	if rec.Gen != rep.Gen || !bytes.Equal(rec.Snapshot, rep.Snapshot) || (rec.Snapshot == nil) != (rep.Snapshot == nil) {
		t.Fatalf("Open chose snapshot gen %d %q, Inspect gen %d %q", rec.Gen, rec.Snapshot, rep.Gen, rep.Snapshot)
	}
	if len(rec.Records) != len(rep.Records) {
		t.Fatalf("Open replayed %d records, Inspect %d", len(rec.Records), len(rep.Records))
	}
	for i := range rec.Records {
		if !bytes.Equal(rec.Records[i], rep.Records[i]) {
			t.Fatalf("record %d: Open %q, Inspect %q", i, rec.Records[i], rep.Records[i])
		}
	}
	if rec.TornBytes != rep.TornBytes {
		t.Fatalf("Open dropped %d torn bytes, Inspect reported %d", rec.TornBytes, rep.TornBytes)
	}
}

func TestInspectMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, "k1")
	s.Snapshot(func() []byte { return []byte("OLD") })
	appendT(t, s, "k2")
	s.Snapshot(func() []byte { return []byte("S") })
	appendT(t, s, "k3")
	appendT(t, s, "k4")
	s.Close()
	// Torn tail on the active segment.
	f, _ := os.OpenFile(activeSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	f.Write(bytes.Repeat([]byte{0x7}, 11))
	f.Close()
	// Bytes recovery never looks at: past the first frame of the chosen
	// snapshot, and anywhere in the older one.
	for _, name := range []string{snapName(1), snapName(2)} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{1, 2, 3})
		f.Close()
	}

	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid() {
		t.Error("corrupted dir inspected as valid")
	}
	if string(rep.Snapshot) != "S" || rep.Gen != 2 {
		t.Errorf("inspect snapshot = gen %d %q", rep.Gen, rep.Snapshot)
	}
	wantRecords(t, rep.Records, "k3", "k4")
	if rep.TornBytes != 11 {
		t.Errorf("inspect TornBytes = %d, want 11 (the segment's tail only)", rep.TornBytes)
	}
	if sn := rep.Snapshots[len(rep.Snapshots)-1]; sn.Torn || !sn.Replayed {
		t.Errorf("chosen snapshot with trailing bytes reported as %+v", sn)
	}

	// Open must load exactly what Inspect reported.
	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	sameRecovery(t, rep, rec)
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": PolicyAlways, "interval": PolicyInterval, "never": PolicyNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}
