package lockproto

import (
	"reflect"
	"strings"
	"testing"
)

// recorder captures the journal stream the way the server's WAL would:
// encoded, in emission order.
type recorder struct{ recs [][]byte }

func (r *recorder) hook(rec Rec) { r.recs = append(r.recs, rec.Encode()) }

func replayT(t *testing.T, lease int64, snap []byte, recs [][]byte) *Recovered {
	t.Helper()
	rec, err := Replay(lease, snap, recs)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return rec
}

// TestJournalReplayDifferential drives a live registry through a workload
// and checks that rebuilding from (a) the full record chain and (b) a
// mid-workload snapshot plus the record suffix both land on exactly the
// live registry's state.
func TestJournalReplayDifferential(t *testing.T) {
	live := NewSessions(10)
	j := &recorder{}
	live.SetJournal(j.hook)

	a := Key{Diner: 0, ID: "a"}
	b := Key{Diner: 1, ID: "b"}
	c := Key{Diner: 0, ID: "c"}
	d := Key{Diner: 2, ID: "d"}

	live.Acquire(a, 1)
	live.Attach(a, 1)
	live.Grant(a, 2)
	live.Acquire(b, 3)
	live.Attach(b, 3)
	live.Release(a, 4)
	live.Detach(a, 4)

	// Snapshot cut: everything before this line is in the snapshot, the
	// suffix must replay on top of it.
	cut := len(j.recs)
	snap := State{Watermark: 4, Sessions: live.SnapshotState()}.Encode()

	live.Acquire(c, 5)
	live.Abort(c)
	live.Acquire(c, 6) // id reusable after abort
	live.Attach(c, 6)
	live.Grant(b, 7)
	live.Acquire(d, 8)
	live.Attach(d, 8)
	live.Detach(b, 9)
	live.Expire(100) // reclaims the detached granted b

	want := live.SnapshotState()
	full := replayT(t, 10, nil, j.recs)
	incr := replayT(t, 10, snap, j.recs[cut:])
	for name, got := range map[string]*Recovered{"full": full, "incremental": incr} {
		if !reflect.DeepEqual(got.Sessions.SnapshotState(), want) {
			t.Errorf("%s replay state = %+v, want %+v", name, got.Sessions.SnapshotState(), want)
		}
		if len(got.Violations) != 0 {
			t.Errorf("%s replay flagged clean history: %v", name, got.Violations)
		}
		if got.Watermark != 100 {
			t.Errorf("%s replay watermark = %d, want 100", name, got.Watermark)
		}
		// Only c (pending) and d (pending) survive: a released, b expired.
		wantLive := []RecoveredSession{{Key: c}, {Key: d}}
		if !reflect.DeepEqual(got.Live, wantLive) {
			t.Errorf("%s replay live = %+v, want %+v", name, got.Live, wantLive)
		}
	}

	// Snapshot-cut duplication: replaying a record prefix the snapshot
	// already covers must be harmless (the wal package cuts snapshots after
	// rotating, so a few new-segment records can predate the cut). The only
	// skew duplication may cause is in attach counts, which the mandatory
	// post-recovery ResetBindings erases — so compare after that fixup.
	overlap := replayT(t, 10, snap, j.recs[cut-3:])
	if len(overlap.Violations) != 0 {
		t.Errorf("benign snapshot overlap flagged as violation: %v", overlap.Violations)
	}
	exact := replayT(t, 10, snap, j.recs[cut:])
	overlap.Sessions.ResetBindings(overlap.Watermark)
	exact.Sessions.ResetBindings(exact.Watermark)
	if got, want := overlap.Sessions.SnapshotState(), exact.Sessions.SnapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("overlapping replay diverged after fixup: %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(overlap.Live, exact.Live) {
		t.Errorf("overlapping replay live = %+v, want %+v", overlap.Live, exact.Live)
	}
}

// TestRecoveryLeaseClock pins the lease-clock skew fix: the recovered
// watermark seeds the server clock, and ResetBindings re-stamps every
// surviving session there. Without both, a restart either mass-expires
// sessions whose lastSeen predates the crash by more than the lease, or —
// if the clock restarted at zero — makes now-lastSeen negative and the
// sessions immortal.
func TestRecoveryLeaseClock(t *testing.T) {
	const lease = 10
	live := NewSessions(lease)
	j := &recorder{}
	live.SetJournal(j.hook)

	holder := Key{Diner: 0, ID: "holder"}   // granted, attached at the crash
	waiter := Key{Diner: 1, ID: "waiter"}   // pending, attached at the crash
	drifter := Key{Diner: 2, ID: "drifter"} // granted, detached long before the crash
	gone := Key{Diner: 3, ID: "gone"}       // released: tombstone

	live.Acquire(holder, 1)
	live.Attach(holder, 1)
	live.Grant(holder, 2)
	live.Acquire(waiter, 3)
	live.Attach(waiter, 3)
	live.Acquire(drifter, 4)
	live.Attach(drifter, 4)
	live.Grant(drifter, 5)
	live.Detach(drifter, 6)
	live.Acquire(gone, 7)
	live.Release(gone, 8)

	// The server runs on to tick 500 — far beyond lastSeen+lease for every
	// session — then crashes. The watermark is the only record of that.
	j.hook(Rec{K: RecTick, T: 500})

	rec := replayT(t, lease, nil, j.recs)
	if rec.Watermark != 500 {
		t.Fatalf("watermark = %d, want 500", rec.Watermark)
	}
	s := rec.Sessions
	s.ResetBindings(rec.Watermark)

	// The fix, part 1: the first janitor pass after restart must not
	// mass-expire the survivors — every one has a full lease to reconnect.
	if got := s.Expire(rec.Watermark + 1); len(got) != 0 {
		t.Fatalf("mass expiry on restart: %v", got)
	}
	// The fix, part 2: the clock resumed from the watermark, so sessions
	// are not immortal either — unreconnected ones expire one lease later.
	got := s.Expire(rec.Watermark + lease + 1)
	if len(got) != 3 {
		t.Fatalf("expired %v after restart grace, want holder+waiter+drifter", got)
	}
	wasGranted := map[Key]bool{}
	for _, e := range got {
		wasGranted[e.Key] = e.WasGranted
	}
	if !wasGranted[holder] || wasGranted[waiter] || !wasGranted[drifter] {
		t.Fatalf("WasGranted flags wrong across recovery: %v", got)
	}

	// Re-run recovery, this time with a client that reconnects in time.
	rec = replayT(t, lease, nil, j.recs)
	s = rec.Sessions
	s.ResetBindings(rec.Watermark)
	// The crash severed all connections: ResetBindings must have cleared
	// holder's pre-crash attach count, or this Detach would leave a stale
	// binding pinning the session forever.
	if got := s.Acquire(holder, rec.Watermark+2); got != AcquireGranted {
		t.Fatalf("replayed acquire of recovered holder = %v, want AcquireGranted", got)
	}
	if s.Grant(holder, rec.Watermark+2) {
		t.Fatal("recovered granted session granted again")
	}
	s.Attach(holder, rec.Watermark+2)
	if got := s.Expire(rec.Watermark + 5*lease); len(got) != 2 {
		t.Fatalf("expired %v, want only the two unreconnected sessions", got)
	}
	// Tombstones survive recovery: the completed session can never revive.
	if got := s.Acquire(gone, rec.Watermark+3); got != AcquireDone {
		t.Fatalf("acquire of recovered tombstone = %v, want AcquireDone", got)
	}
}

func TestReplayForkFolding(t *testing.T) {
	recs := [][]byte{
		// Edge {0,1}: 0 takes the fork, then yields it to 1.
		Rec{K: RecFork, P: 0, Q: 1, H: true}.Encode(),
		Rec{K: RecFork, P: 0, Q: 1, H: false}.Encode(),
		Rec{K: RecFork, P: 1, Q: 0, H: true}.Encode(),
		// Edge {1,2}: only the high side ever reported; it holds.
		Rec{K: RecFork, P: 2, Q: 1, H: true}.Encode(),
		// Edge {0,2}: in flight at the crash — neither side holds.
		Rec{K: RecFork, P: 0, Q: 2, H: false}.Encode(),
		Rec{K: RecFork, P: 2, Q: 0, H: false}.Encode(),
	}
	rec := replayT(t, 0, nil, recs)
	want := map[Edge]bool{
		{P: 0, Q: 1}: false, // 1 holds
		{P: 1, Q: 2}: false, // 2 holds
		{P: 0, Q: 2}: true,  // in flight: lower endpoint mints
	}
	if !reflect.DeepEqual(rec.Forks, want) {
		t.Fatalf("folded forks = %v, want %v", rec.Forks, want)
	}

	// Fork state round-trips through snapshots too.
	snap := State{Watermark: 9, Forks: []ForkState{{P: 1, Q: 0, Hold: true}}}.Encode()
	rec = replayT(t, 0, snap, nil)
	if want := map[Edge]bool{{P: 0, Q: 1}: false}; !reflect.DeepEqual(rec.Forks, want) {
		t.Fatalf("snapshot forks = %v, want %v", rec.Forks, want)
	}
}

// TestReplayDoubleGrantLedger: two grant records for one key is the
// ledger's proof of a double grant, and must surface as a Violation — while
// the benign single grant following a snapshot that already shows the
// session granted must not.
func TestReplayDoubleGrantLedger(t *testing.T) {
	k := Key{Diner: 4, ID: "dg"}
	bad := [][]byte{
		Rec{K: RecAcquire, D: k.Diner, I: k.ID, T: 1}.Encode(),
		Rec{K: RecGrant, D: k.Diner, I: k.ID, T: 2}.Encode(),
		Rec{K: RecGrant, D: k.Diner, I: k.ID, T: 3}.Encode(),
	}
	rec := replayT(t, 0, nil, bad)
	if len(rec.Violations) != 1 || !strings.Contains(rec.Violations[0], "double grant") {
		t.Fatalf("double grant not flagged: %v", rec.Violations)
	}

	snap := State{Watermark: 2, Sessions: []SessionState{
		{Diner: k.Diner, ID: k.ID, Status: "granted", LastSeen: 2},
	}}.Encode()
	benign := [][]byte{Rec{K: RecGrant, D: k.Diner, I: k.ID, T: 2}.Encode()}
	rec = replayT(t, 0, snap, benign)
	if len(rec.Violations) != 0 {
		t.Fatalf("snapshot-duplicated grant flagged as violation: %v", rec.Violations)
	}
	if len(rec.Live) != 1 || !rec.Live[0].Granted {
		t.Fatalf("live = %+v, want the granted session", rec.Live)
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(0, []byte("{not json"), nil); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if _, err := Replay(0, nil, [][]byte{[]byte("nope")}); err == nil {
		t.Error("garbage record accepted")
	}
	if _, err := Replay(0, nil, [][]byte{Rec{K: "mystery"}.Encode()}); err == nil {
		t.Error("unknown record kind accepted")
	}
	if _, err := Replay(0, []byte(`{"sessions":[{"d":0,"i":"x","s":"weird"}]}`), nil); err == nil {
		t.Error("unknown session status accepted")
	}
}

// TestGrantDoesNotRenewDetachedLease pins the lease rule for a dead client's
// queued acquire: the session detached (tick 5) while still pending, reaches
// the head of its diner's queue and is granted much later (tick 12). The
// grant must not restart the lease — nobody is there to use the critical
// section — so the session expires one lease after the detach, not one lease
// after the grant. Recovery must agree with the live registry, from the full
// record chain and from a snapshot cut before the grant alike.
func TestGrantDoesNotRenewDetachedLease(t *testing.T) {
	const lease = 10
	live := NewSessions(lease)
	j := &recorder{}
	live.SetJournal(j.hook)

	dead := Key{Diner: 0, ID: "dead"}   // detached while queued
	alive := Key{Diner: 1, ID: "alive"} // still bound: the grant is a touch

	live.Acquire(dead, 1)
	live.Attach(dead, 1)
	live.Acquire(alive, 1)
	live.Attach(alive, 1)
	live.Detach(dead, 5)
	snap := State{Watermark: 5, Sessions: live.SnapshotState()}.Encode()
	cut := len(j.recs)
	if !live.Grant(dead, 12) || !live.Grant(alive, 12) {
		t.Fatal("pending sessions refused their grant")
	}

	check := func(name string, s *Sessions) {
		t.Helper()
		if got := s.Expire(15); len(got) != 0 {
			t.Fatalf("%s: expired %v at tick 15, inside detach+lease", name, got)
		}
		got := s.Expire(16)
		if len(got) != 1 || got[0].Key != dead || !got[0].WasGranted {
			t.Fatalf("%s: Expire(16) = %v, want the detached grant reclaimed at detach+lease (not grant+lease = 22)", name, got)
		}
		if again := s.Expire(1000); len(again) != 0 {
			t.Fatalf("%s: attached session expired: %v", name, again)
		}
	}
	check("replay", replayT(t, lease, nil, j.recs).Sessions)
	check("snapshot+replay", replayT(t, lease, snap, j.recs[cut:]).Sessions)
	check("live", live)
}
