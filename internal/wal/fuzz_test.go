package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the recovery path as a snapshot
// file and a WAL segment. Whatever the bytes, recovery must never panic,
// must load exactly what Inspect reported (generation, snapshot, records,
// torn bytes), must keep only CRC-valid frames, and must leave the store
// appendable: a record appended after recovery must itself be recoverable,
// with every previously recovered record still in front of it.
func FuzzWALReplay(f *testing.F) {
	valid := appendFrame(appendFrame(nil, []byte(`{"k":"acq","d":1,"i":"s1","t":7}`)), []byte(`{"k":"grant","d":1,"i":"s1","t":9}`))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{}, valid)
	f.Add(appendFrame(nil, []byte("snapshot")), valid)
	f.Add(appendFrame(nil, []byte("snapshot")), append(append([]byte{}, valid...), 0xde, 0xad))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, []byte{0, 0, 0, 0})
	truncated := valid[:len(valid)-3]
	f.Add(truncated, truncated)
	// A snapshot is its first frame: trailing bytes are not a tear.
	f.Add(append(appendFrame(nil, []byte("snapshot")), 1, 2, 3), valid)

	f.Fuzz(func(t *testing.T, snap, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName(1)), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}

		rep, err := Inspect(dir)
		if err != nil {
			t.Fatalf("Inspect errored on fuzzed input: %v", err)
		}

		s, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open errored on fuzzed input: %v", err)
		}
		sameRecovery(t, rep, rec)
		// Every recovered record must be a CRC-valid frame of the input.
		snapRecs, _ := scanFrames(snap)
		if rec.Snapshot != nil {
			if len(snapRecs) == 0 || !bytes.Equal(rec.Snapshot, snapRecs[0]) {
				t.Fatalf("recovered snapshot %q not the input's first valid frame", rec.Snapshot)
			}
		} else if len(snapRecs) > 0 {
			t.Fatalf("valid snapshot frame not recovered")
		}
		segRecs, _ := scanFrames(seg)
		if len(rec.Records) > len(segRecs) {
			t.Fatalf("recovered %d records from a segment with %d valid frames", len(rec.Records), len(segRecs))
		}
		for i, r := range rec.Records {
			if !bytes.Equal(r, segRecs[i]) {
				t.Fatalf("record %d = %q, segment frame is %q", i, r, segRecs[i])
			}
		}

		// Recovery must stop at the last valid record and leave the segment
		// appendable: the marker must survive a second recovery, behind
		// exactly the records of the first.
		marker := []byte("post-recovery-marker")
		lsn, err := s.Append(marker)
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := s.Sync(lsn); err != nil {
			t.Fatalf("sync after recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}

		s2, rec2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s2.Close()
		if len(rec2.Records) != len(rec.Records)+1 {
			t.Fatalf("second recovery has %d records, want %d", len(rec2.Records), len(rec.Records)+1)
		}
		for i, r := range rec.Records {
			if !bytes.Equal(rec2.Records[i], r) {
				t.Fatalf("record %d changed across recoveries", i)
			}
		}
		if !bytes.Equal(rec2.Records[len(rec2.Records)-1], marker) {
			t.Fatalf("marker lost: last record is %q", rec2.Records[len(rec2.Records)-1])
		}
		if rec2.TornBytes != 0 {
			t.Fatalf("second recovery reports %d torn bytes after truncation", rec2.TornBytes)
		}
	})
}
