package lockproto

import (
	"strconv"
	"strings"
	"testing"
)

func TestSessionsLifecycle(t *testing.T) {
	s := NewSessions(0)
	k := Key{Diner: 1, ID: "a"}
	if got := s.Acquire(k, 1); got != AcquireNew {
		t.Fatalf("first acquire = %v, want AcquireNew", got)
	}
	if got := s.Acquire(k, 2); got != AcquirePending {
		t.Fatalf("replayed acquire = %v, want AcquirePending", got)
	}
	if !s.Grant(k, 3) {
		t.Fatal("grant of pending session refused")
	}
	if got := s.Acquire(k, 4); got != AcquireGranted {
		t.Fatalf("post-grant acquire = %v, want AcquireGranted", got)
	}
	if s.Grant(k, 5) {
		t.Fatal("double grant")
	}
	if got := s.Release(k, 6); got != ReleaseGranted {
		t.Fatalf("release = %v, want ReleaseGranted", got)
	}
	if got := s.Release(k, 7); got != ReleaseDone {
		t.Fatalf("replayed release = %v, want ReleaseDone", got)
	}
	if got := s.Acquire(k, 8); got != AcquireDone {
		t.Fatalf("post-release acquire = %v, want AcquireDone", got)
	}
	if got := s.Release(Key{Diner: 9, ID: "x"}, 9); got != ReleaseUnknown {
		t.Fatalf("unknown release = %v, want ReleaseUnknown", got)
	}
}

func TestSessionsReleaseBeforeGrant(t *testing.T) {
	s := NewSessions(0)
	k := Key{Diner: 0, ID: "q"}
	s.Acquire(k, 1)
	if got := s.Release(k, 2); got != ReleasePending {
		t.Fatalf("release of pending = %v, want ReleasePending", got)
	}
	if s.Grant(k, 3) {
		t.Fatal("grant after pending release")
	}
}

func TestSessionsAbort(t *testing.T) {
	s := NewSessions(0)
	k := Key{Diner: 0, ID: "b"}
	s.Acquire(k, 1)
	s.Abort(k)
	if got := s.Acquire(k, 2); got != AcquireNew {
		t.Fatalf("acquire after abort = %v, want AcquireNew (id reusable)", got)
	}
	s.Grant(k, 3)
	s.Abort(k) // no-op: only pending sessions can be aborted
	if got := s.Acquire(k, 4); got != AcquireGranted {
		t.Fatalf("acquire after late abort = %v, want AcquireGranted", got)
	}
}

func TestSessionsLeaseExpiry(t *testing.T) {
	s := NewSessions(10)
	held := Key{Diner: 0, ID: "held"}
	queued := Key{Diner: 1, ID: "queued"}
	watched := Key{Diner: 2, ID: "watched"}
	s.Acquire(held, 0)
	s.Attach(held, 0)
	s.Grant(held, 0)
	s.Acquire(queued, 0)
	s.Attach(queued, 0)
	s.Acquire(watched, 0)
	s.Attach(watched, 0)
	s.Detach(held, 5)
	s.Detach(queued, 5)
	// watched stays attached: never expires.
	if got := s.Expire(10); len(got) != 0 {
		t.Fatalf("expired %v before the lease ran out", got)
	}
	got := s.Expire(16)
	if len(got) != 2 {
		t.Fatalf("expired %v, want the two detached sessions", got)
	}
	for _, e := range got {
		switch e.Key {
		case held:
			if !e.WasGranted {
				t.Error("held session not flagged WasGranted")
			}
		case queued:
			if e.WasGranted {
				t.Error("queued session flagged WasGranted")
			}
		default:
			t.Errorf("unexpected expiry %v", e)
		}
	}
	if again := s.Expire(100); len(again) != 0 {
		t.Fatalf("sessions expired twice: %v", again)
	}
	if got := s.Acquire(held, 20); got != AcquireDone {
		t.Fatalf("acquire of expired session = %v, want AcquireDone", got)
	}
	if got := s.Release(held, 21); got != ReleaseDone {
		t.Fatalf("release of expired session = %v, want ReleaseDone", got)
	}
	// Replaying the acquire before expiry refreshes the lease clock.
	saved := Key{Diner: 3, ID: "saved"}
	s.Acquire(saved, 30)
	s.Detach(saved, 30)
	s.Acquire(saved, 39) // replay inside the lease
	if got := s.Expire(45); len(got) != 0 {
		t.Fatalf("refreshed session expired: %v", got)
	}
}

// TestSessionsAttachCounting pins the reconnect race: a client's new
// connection re-attaches its session while the old connection's teardown is
// still pending. Bindings are counted, so the late teardown must not strand
// the session detached (the bug: a boolean flag let the old connection's
// detach overwrite the new attach, and the janitor expired a session whose
// client was connected and waiting).
func TestSessionsAttachCounting(t *testing.T) {
	s := NewSessions(10)
	k := Key{Diner: 0, ID: "r"}
	s.Acquire(k, 0)
	s.Attach(k, 0) // connection A
	s.Attach(k, 1) // connection B: the reconnect's replayed acquire
	s.Detach(k, 2) // A's deferred teardown lands after B took over
	if got := s.Expire(50); len(got) != 0 {
		t.Fatalf("session with a live binding expired: %v", got)
	}
	s.Detach(k, 60) // B goes too: now the lease clock really runs
	if got := s.Expire(65); len(got) != 0 {
		t.Fatalf("expired %v inside the lease", got)
	}
	if got := s.Expire(71); len(got) != 1 {
		t.Fatalf("fully detached session not expired: %v", got)
	}
	// Unpaired detaches clamp instead of corrupting the count.
	k2 := Key{Diner: 1, ID: "c"}
	s.Acquire(k2, 80)
	s.Detach(k2, 80)
	s.Detach(k2, 80)
	s.Attach(k2, 81)
	if got := s.Expire(200); len(got) != 0 {
		t.Fatalf("attached session expired after stray detaches: %v", got)
	}
}

// FuzzLockprotoDedup drives the registry with arbitrary interleavings of
// acquire/attach/grant/release/detach/expire over a small key space — the
// chaos a reconnecting client's replayed and duplicated frames produce — and
// checks the invariants the dining service's safety rests on:
//
//  1. Grant succeeds at most once per key, ever (a replayed acquire after a
//     release or expiry can never re-enter the critical section).
//  2. A done session is never reborn: once Acquire returns AcquireDone for
//     a key, it returns AcquireDone forever (Abort only unwinds pending).
//  3. Expire never reclaims the same session twice, and only ever reports
//     WasGranted for keys that were actually granted.
func FuzzLockprotoDedup(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 8, 16, 0, 16, 8})
	f.Add([]byte{0, 0, 8, 24, 32, 0, 8})
	// Bit 6 moves the id to the counted family s1..s4, whose finished
	// sessions share spans: out of order, bridging, beside an open neighbour.
	f.Add([]byte{64, 65, 66, 96, 97, 98, 80, 81, 82, 64, 80, 96, 66, 82, 98})
	f.Add([]byte{96, 98, 64, 66, 80, 112, 84, 82, 80, 96, 64, 112, 113, 114, 112})
	f.Add([]byte{64, 72, 66, 74, 80, 67, 68, 88, 64, 72, 80, 88, 0, 2, 64})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSessions(4)
		granted := make(map[Key]int)
		done := make(map[Key]bool)
		now := int64(0)
		for _, b := range ops {
			op := int(b) % 7
			k := Key{Diner: int(b/8) % 2, ID: string(rune('a' + (b/16)%4))}
			if b&64 != 0 {
				k.ID = "s" + string(rune('1'+(b/16)%4))
			}
			now++
			switch op {
			case 0:
				r := s.Acquire(k, now)
				if done[k] && r != AcquireDone {
					t.Fatalf("done session %v reborn: acquire = %v", k, r)
				}
			case 1:
				if s.Grant(k, now) {
					granted[k]++
					if granted[k] > 1 {
						t.Fatalf("session %v granted %d times", k, granted[k])
					}
					if done[k] {
						t.Fatalf("done session %v granted", k)
					}
				}
			case 2:
				switch s.Release(k, now) {
				case ReleaseGranted, ReleasePending:
					done[k] = true
				}
			case 3:
				s.Detach(k, now)
			case 4:
				now += 3 // let leases run out
				for _, e := range s.Expire(now) {
					if done[e.Key] {
						t.Fatalf("session %v expired after completion", e.Key)
					}
					if e.WasGranted && granted[e.Key] == 0 {
						t.Fatalf("never-granted session %v expired as granted", e.Key)
					}
					done[e.Key] = true
				}
			case 5:
				s.Abort(k)
				if granted[k] > 0 && !done[k] {
					// Abort must not unwind a granted session.
					if got := s.Acquire(k, now); got != AcquireGranted {
						t.Fatalf("abort unwound granted session %v: acquire = %v", k, got)
					}
				}
			case 6:
				s.Attach(k, now)
			}
		}
	})
}

// inFlight counts the records the registry holds — exactly what an Expire
// or ResetBindings pass visits.
func inFlight(s *Sessions) (n int) {
	for i := range s.shards {
		n += len(s.shards[i].recs)
	}
	return n
}

// TestRegistryBoundedBySessionsInFlight: what the registry holds, what a
// janitor pass walks and what a snapshot carries are bounded by the sessions
// in flight and the clients that ever finished one, not by the sessions ever
// served. A million sequential sessions over 8 diners x 4 clients leave 32
// done-index entries of one span each and no record; the first of them still
// answers done. Expire returns exactly the ten detached sessions whose lease
// ran out, once. The same registry comes back from recovery — at a scale
// that keeps the journal small — rebuilt from the journal alone and from a
// snapshot plus the journal's suffix.
func TestRegistryBoundedBySessionsInFlight(t *testing.T) {
	const lease, lost, held = 10, 10, 5
	const diners, clients = 8, 4
	id := func(i int) Key {
		c := i % (diners * clients)
		return Key{Diner: c % diners, ID: "c" + strconv.Itoa(c/diners) + "-" + strconv.Itoa(i/(diners*clients))}
	}
	build := func(finished int, j *recorder) (s *Sessions, snap []byte, cut int) {
		s = NewSessions(lease)
		if j != nil {
			s.SetJournal(j.hook)
		}
		for i := 0; i < finished; i++ {
			k := id(i)
			s.Acquire(k, 0)
			s.Grant(k, 0)
			s.Release(k, 0)
		}
		if j != nil {
			snap, cut = snapshotT(s, 0), len(j.recs)
		}
		for i := 0; i < lost+held; i++ {
			k := Key{Diner: i, ID: "open-" + strconv.Itoa(i)}
			s.Acquire(k, 1)
			s.Attach(k, 1)
			if i < lost {
				s.Detach(k, 2) // its connection died: the lease is running
			}
		}
		return s, snap, cut
	}

	check := func(name string, s *Sessions, finished int) {
		t.Helper()
		if n := inFlight(s); n != lost+held {
			t.Fatalf("%s: registry holds %d records after %d finished sessions, want the %d in flight", name, n, finished, lost+held)
		}
		st := s.SnapshotState()
		if len(st.Done) != diners*clients || s.DoneSize() != 2*diners*clients {
			t.Fatalf("%s: done index has %d entries, size %d; want %d entries of one span each", name, len(st.Done), s.DoneSize(), diners*clients)
		}
		for _, d := range st.Done {
			want := [2]uint64{0, uint64(finished/(diners*clients) - 1)}
			if len(d.Ranges) != 1 || d.Ranges[0] != want || d.Bare {
				t.Fatalf("%s: done entry %+v, want the one span %v", name, d, want)
			}
		}
		if enc := st.Encode(); len(enc) >= 4<<10 {
			t.Fatalf("%s: snapshot of %d finished sessions is %d bytes, want < 4 KiB", name, finished, len(enc))
		}
		for _, i := range []int{0, finished / 2, finished - 1} {
			if got := s.Acquire(id(i), 2); got != AcquireDone {
				t.Fatalf("%s: replayed acquire of finished session %v = %v, want AcquireDone", name, id(i), got)
			}
			if got := s.Release(id(i), 2); got != ReleaseDone {
				t.Fatalf("%s: replayed release of finished session %v = %v, want ReleaseDone", name, id(i), got)
			}
		}
		if got := s.Release(id(finished), 2); got != ReleaseUnknown {
			t.Fatalf("%s: release of never-seen session %v = %v, want ReleaseUnknown", name, id(finished), got)
		}
		if got := s.Expire(2 + lease); len(got) != 0 {
			t.Fatalf("%s: %d sessions expired inside their lease", name, len(got))
		}
		got := s.Expire(3 + lease)
		if len(got) != lost {
			t.Fatalf("%s: Expire returned %d sessions, want the %d detached ones", name, len(got), lost)
		}
		for _, e := range got {
			if !strings.HasPrefix(e.Key.ID, "open-") || e.Key.Diner >= lost || e.WasGranted {
				t.Fatalf("%s: expired %+v, not one of the detached pending sessions", name, e)
			}
		}
		if again := s.Expire(1 << 40); len(again) != 0 {
			t.Fatalf("%s: second pass expired %d more (attached sessions never expire)", name, len(again))
		}
		if n := inFlight(s); n != held {
			t.Fatalf("%s: %d sessions in flight after the pass, want the %d attached ones", name, n, held)
		}
	}
	live, _, _ := build(1_000_000, nil)
	check("live", live, 1_000_000)

	j := &recorder{}
	_, snap, cut := build(1_920, j)
	check("replay", replayT(t, lease, nil, j.recs).Sessions, 1_920)
	check("snapshot+replay", replayT(t, lease, snap, j.recs[cut:]).Sessions, 1_920)
}
