package dinesvc

import (
	"fmt"
	"testing"

	"repro/internal/lockproto"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// TestSnapshotCutIsAmortised feeds a durable table 50 000 sessions whose ids
// carry no counter — the protocol allows any string, and each such id costs
// the done index a row for good — with a janitor pass every 50 sessions. A
// cut every SnapRecords records would re-serialise the whole index on all
// 1 000 passes; the cut rule lets the interval grow with the snapshot, so
// the cuts are logarithmic in the sessions served, the log behind the last
// one stays shorter than what it snapshotted plus one interval, and the
// table recovers every id.
func TestSnapshotCutIsAmortised(t *testing.T) {
	const sessions, perPass, snapEvery = 50_000, 50, 64
	dir := t.TempDir()
	store, _, err := wal.Open(dir, wal.Options{Policy: wal.PolicyNever})
	if err != nil {
		t.Fatal(err)
	}
	reg := lockproto.NewSessions(0)
	d := newDurable(store, reg, snapEvery, t.Fatalf)
	d.snapshots = &metrics.Counter{}
	reg.SetJournal(d.journal)
	id := func(i int) lockproto.Key { return lockproto.Key{Diner: i % 4, ID: fmt.Sprintf("%d-uuid", i)} }
	for i := 0; i < sessions; i++ {
		k := id(i)
		reg.Acquire(k, int64(i))
		reg.Grant(k, int64(i))
		reg.Release(k, int64(i))
		if i%perPass == perPass-1 {
			d.tick(int64(i))
		}
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	// Rows grow by one per session and a cut waits for as many records as
	// the last snapshot had rows: each interval is 4/3 of the one before.
	cuts := d.snapshots.Value()
	t.Logf("%d snapshots over %d passes", cuts, sessions/perPass)
	if cuts < 2 || cuts > 40 {
		t.Fatalf("%d snapshots cut over %d janitor passes, want O(log sessions) (about 25)", cuts, sessions/perPass)
	}

	store, rec, err := wal.Open(dir, wal.Options{Policy: wal.PolicyNever})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	snap, err := lockproto.DecodeState(rec.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	// One interval, overshot by at most one janitor pass (3 records a
	// session and the pass's own tick).
	if rows := snap.Rows(); len(rec.Records) > max(rows, snapEvery)+perPass*3+1 {
		t.Fatalf("recovery replays %d records behind a snapshot of %d rows: more than one cut interval", len(rec.Records), rows)
	}
	got, err := lockproto.Replay(0, rec.Snapshot, rec.Records)
	if err != nil || len(got.Violations) != 0 {
		t.Fatalf("replay: %v, violations %v", err, got.Violations)
	}
	if n := got.Sessions.DoneSize(); n != sessions {
		t.Fatalf("recovered done index holds %d rows, want one per session (%d)", n, sessions)
	}
	for i := 0; i < sessions; i++ {
		if res := got.Sessions.Acquire(id(i), 0); res != lockproto.AcquireDone {
			t.Fatalf("recovered registry forgot session %v: acquire = %v", id(i), res)
		}
	}
}
