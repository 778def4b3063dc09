package lockproto

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// recorder captures the journal stream the way the server's WAL would:
// encoded, in emission order.
type recorder struct{ recs [][]byte }

func (r *recorder) hook(rec Rec) { r.recs = append(r.recs, rec.Encode()) }

// snapshotT is the payload a snapshot of s cut at the given watermark holds.
func snapshotT(s *Sessions, watermark int64) []byte {
	st := s.SnapshotState()
	st.Watermark = watermark
	return st.Encode()
}

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
	snap := snapshotT(live, 4)

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
	snap := snapshotT(live, 5)
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

// TestReplaySnapshotV1 recovers a data dir written before the done index:
// testdata/snapshot_v1.json is a v1 payload written by hand — one "s":"done"
// row per finished session among the pending and granted ones, forks, a
// watermark. It must replay to the registry its v2 equivalent replays to,
// alone and under a record suffix, and its finished sessions must stay
// finished.
func TestReplaySnapshotV1(t *testing.T) {
	v1, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	v2 := State{
		Watermark: 42,
		Sessions: []SessionState{
			{Diner: 0, ID: "c0-d0-3", Status: "granted", LastSeen: 30, Attached: 1},
			{Diner: 1, ID: "c1-d1-2", Status: "pending", LastSeen: 35, Attached: 1},
			{Diner: 2, ID: "waiting", Status: "pending", LastSeen: 40},
		},
		Done: []DoneState{
			{Diner: 0, Prefix: "c0-d0-", Ranges: [][2]uint64{{1, 2}}},
			{Diner: 1, Prefix: "c1-d1-", Ranges: [][2]uint64{{1, 1}, {3, 3}}},
			{Diner: 1, Prefix: "lonely", Bare: true},
			{Diner: 2, Prefix: "a00", Ranges: [][2]uint64{{7, 7}}},
			{Diner: 17, Prefix: "c0-d0-", Ranges: [][2]uint64{{1, 1}}},
		},
		Forks: []ForkState{{P: 0, Q: 1, Hold: true}, {P: 1, Q: 0, Hold: false}, {P: 2, Q: 1, Hold: true}},
	}
	if strings.Contains(string(v2.Encode()), `"s":"done"`) || !strings.Contains(string(v1), `"s":"done"`) {
		t.Fatal("the fixture must be a v1 payload and its equivalent a v2 one")
	}
	suffix := [][]byte{
		Rec{K: RecGrant, D: 1, I: "c1-d1-2", T: 43}.Encode(),
		Rec{K: RecRelease, D: 1, I: "c1-d1-2", T: 44}.Encode(), // bridges [1,1] and [3,3]
		Rec{K: RecAcquire, D: 2, I: "a007", T: 45}.Encode(),    // replayed frames of finished sessions
		Rec{K: RecRelease, D: 1, I: "lonely", T: 45}.Encode(),
		Rec{K: RecAcquire, D: 0, I: "c0-d0-4", T: 46}.Encode(),
	}
	for _, tc := range []struct {
		name   string
		suffix [][]byte
		done   []DoneState
		live   []RecoveredSession
	}{
		{"snapshot only", nil, v2.Done, []RecoveredSession{
			{Key: Key{Diner: 0, ID: "c0-d0-3"}, Granted: true}, {Key: Key{Diner: 1, ID: "c1-d1-2"}}, {Key: Key{Diner: 2, ID: "waiting"}},
		}},
		{"snapshot+suffix", suffix, []DoneState{
			v2.Done[0], {Diner: 1, Prefix: "c1-d1-", Ranges: [][2]uint64{{1, 3}}}, v2.Done[2], v2.Done[3], v2.Done[4],
		}, []RecoveredSession{
			{Key: Key{Diner: 0, ID: "c0-d0-3"}, Granted: true}, {Key: Key{Diner: 2, ID: "waiting"}}, {Key: Key{Diner: 0, ID: "c0-d0-4"}},
		}},
	} {
		old, cur := replayT(t, 10, v1, tc.suffix), replayT(t, 10, v2.Encode(), tc.suffix)
		if got, want := old.Sessions.SnapshotState(), cur.Sessions.SnapshotState(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: v1 replays to %+v, its v2 equivalent to %+v", tc.name, got, want)
		}
		if got := old.Sessions.SnapshotState().Done; !reflect.DeepEqual(got, tc.done) {
			t.Errorf("%s: done index %+v, want %+v", tc.name, got, tc.done)
		}
		if !reflect.DeepEqual(old.Live, tc.live) || !reflect.DeepEqual(cur.Live, tc.live) {
			t.Errorf("%s: live = %+v (v1), %+v (v2), want %+v", tc.name, old.Live, cur.Live, tc.live)
		}
		if !reflect.DeepEqual(old.Forks, cur.Forks) || len(old.Forks) != 2 || old.Watermark != cur.Watermark || len(old.Violations)+len(cur.Violations) != 0 {
			t.Errorf("%s: forks %v / %v, watermark %d / %d, violations %v %v", tc.name, old.Forks, cur.Forks, old.Watermark, cur.Watermark, old.Violations, cur.Violations)
		}
		for _, k := range []Key{{0, "c0-d0-1"}, {0, "c0-d0-2"}, {1, "c1-d1-1"}, {1, "c1-d1-3"}, {1, "lonely"}, {2, "a007"}, {17, "c0-d0-1"}} {
			if got := old.Sessions.Acquire(k, 50); got != AcquireDone {
				t.Errorf("%s: replayed acquire of finished %v = %v, want AcquireDone", tc.name, k, got)
			}
			if got := old.Sessions.Release(k, 50); got != ReleaseDone {
				t.Errorf("%s: replayed release of finished %v = %v, want ReleaseDone", tc.name, k, got)
			}
		}
		// Near misses of the finished ids were never seen.
		for _, k := range []Key{{0, "c0-d0-0"}, {2, "a7"}, {2, "a07"}, {2, "a0007"}, {1, "lonely0"}, {3, "c0-d0-1"}} {
			if got := old.Sessions.Release(k, 50); got != ReleaseUnknown {
				t.Errorf("%s: release of never-seen %v = %v, want ReleaseUnknown", tc.name, k, got)
			}
		}
	}

	for _, bad := range []string{
		`{"done":[{"d":0,"p":"x","r":[[5,4]]}]}`,
		`{"done":[{"d":0,"p":"x","r":[[0,1000000000000000000]]}]}`,
	} {
		if _, err := Replay(0, []byte(bad), nil); err == nil {
			t.Errorf("snapshot %s accepted", bad)
		}
	}
}

// FuzzRecEncodeMatchesStdlib: the journal's append encoder is encoding/json's
// output, byte for byte.
func FuzzRecEncodeMatchesStdlib(f *testing.F) {
	f.Add(RecGrant, 3, "c1-d3-12345", int64(23456), 0, 0, false)
	f.Add(RecFork, 0, "", int64(0), 2, 1, true)
	f.Add(RecTick, 0, "", int64(-9), 0, 0, false)
	f.Add("q\"uo\\te", -7, "id \"with\" <quotes> & \x00\x1f  \xff\xfe", int64(1)<<62, -1, -2, true)
	f.Add("", 0, "é \x7f\t\n", int64(-1)<<63, 1<<31, -1<<31, false)
	f.Fuzz(func(t *testing.T, k string, d int, i string, tick int64, p, q int, h bool) {
		r := Rec{K: k, D: d, I: i, T: tick, P: p, Q: q, H: h}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRec(nil, &r); !bytes.Equal(got, want) {
			t.Fatalf("AppendRec = %s, json.Marshal = %s", got, want)
		}
		if got := r.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("Encode = %s, json.Marshal = %s", got, want)
		}
	})
}

var recSink []byte

// BenchmarkRecAppend is one journal record encoded the way durable.append
// does it, into a buffer it owns: no allocation.
func BenchmarkRecAppend(b *testing.B) {
	b.ReportAllocs()
	r := Rec{K: RecGrant, D: 3, I: "c1-d3-12345", T: 23456}
	buf := make([]byte, 0, 128)
	for i := 0; i < b.N; i++ {
		buf = AppendRec(buf[:0], &r)
	}
	recSink = buf
}

// BenchmarkSessionsSnapshot is one checkpoint — capture and encode — of a
// registry that has served 200 000 sessions: named prefix + counter, which
// the done index holds as one span per client and diner, and named with no
// counter, which cost an entry each (what every id cost before the index).
func BenchmarkSessionsSnapshot(b *testing.B) {
	const finished = 200_000
	for _, bc := range []struct {
		name string
		id   func(i int) string
	}{
		{"sequential", func(i int) string { return "c" + strconv.Itoa(i%4) + "-" + strconv.Itoa(i/4) }},
		{"bare", func(i int) string { return strconv.Itoa(i) + "-x" }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSessions(0)
			for i := 0; i < finished; i++ {
				k := Key{Diner: i % 8, ID: bc.id(i / 8)}
				s.Acquire(k, 0)
				s.Grant(k, 0)
				s.Release(k, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recSink = s.SnapshotState().Encode()
			}
			b.ReportMetric(float64(len(recSink)), "snapshot-bytes")
		})
	}
}
