package lockproto

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSessionsShardedRace hammers the sharded registry from many goroutines
// — full session lifecycles on every diner, concurrent janitor sweeps,
// snapshot captures, and a journal hook — and then audits the survivors.
// Run under -race (make race does) this is the data-race proof for the
// shard rewrite; the final audit is the semantic one: exactly one grant per
// key, every key accounted for.
func TestSessionsShardedRace(t *testing.T) {
	s := NewSessions(1) // tiny lease so Expire really reclaims
	var journaled atomic.Int64
	var expired sync.Map // Key → true: what the janitor reclaimed, per the journal
	s.SetJournal(func(r Rec) {
		journaled.Add(1)
		if r.K == RecExpire {
			expired.Store(Key{Diner: r.D, ID: r.I}, true)
		}
	})

	const (
		workers = 8
		perG    = 200
		diners  = 64 // several per shard
	)
	grants := make([]atomic.Int64, workers*perG)
	var clock atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				idx := g*perG + i
				k := Key{Diner: (g*31 + i) % diners, ID: fmt.Sprintf("g%d-%d", g, i)}
				now := clock.Add(1)
				if s.Acquire(k, now) != AcquireNew {
					t.Errorf("fresh key %v not AcquireNew", k)
					return
				}
				s.Attach(k, now)
				// Replayed acquire must classify as pending, never re-new. The one
				// exception: a janitor sweep that landed between Acquire and Attach
				// (the lease is one tick of a clock every goroutine advances)
				// reclaimed the session. Done is accepted only when the journal
				// shows that expiry, and the key then goes through the rest of the
				// lifecycle as a finished session: never granted, release replays.
				gone := false
				switch res := s.Acquire(k, clock.Add(1)); res {
				case AcquirePending:
				case AcquireDone:
					if _, gone = expired.Load(k); !gone {
						t.Errorf("replayed acquire on %v: done, but the janitor never expired it", k)
						return
					}
				default:
					t.Errorf("replayed acquire on %v: %v", k, res)
					return
				}
				if s.Grant(k, clock.Add(1)) {
					grants[idx].Add(1)
				}
				if s.Grant(k, clock.Add(1)) { // second grant must be refused
					grants[idx].Add(1)
				}
				if gone {
					if grants[idx].Load() != 0 {
						t.Errorf("expired session %v was granted", k)
						return
					}
					if res := s.Release(k, clock.Add(1)); res != ReleaseDone {
						t.Errorf("release of expired session %v: %v", k, res)
						return
					}
				}
				switch i % 3 {
				case 0:
					s.Release(k, clock.Add(1))
					s.Detach(k, clock.Add(1))
				case 1:
					s.Detach(k, clock.Add(1)) // detached: janitor bait
				default:
					s.Release(k, clock.Add(1))
					s.Release(k, clock.Add(1)) // idempotent replay
					s.Detach(k, clock.Add(1))
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() { // concurrent janitor + snapshot traffic
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Expire(clock.Add(2))
			_ = s.SnapshotState()
		}
	}()
	wg.Wait()
	close(stop)
	sweeps.Wait()

	for idx := range grants {
		if n := grants[idx].Load(); n > 1 {
			t.Fatalf("session %d granted %d times", idx, n)
		}
	}
	if journaled.Load() == 0 {
		t.Fatal("journal hook never fired")
	}
	// Negative diners (the Release path does not pre-validate) must map to a
	// shard, not panic.
	if res := s.Release(Key{Diner: -7, ID: "x"}, 1); res != ReleaseUnknown {
		t.Fatalf("negative-diner release: %v", res)
	}
	// Every key must still classify deterministically after the storm.
	done, pending, granted := 0, 0, 0
	snap := s.SnapshotState()
	for _, st := range snap.Sessions {
		switch st.Status {
		case "pending":
			pending++
		case "granted":
			granted++
		}
	}
	for _, d := range snap.Done { // ids are g<worker>-<i>: all counted
		for _, r := range d.Ranges {
			done += int(r[1] - r[0] + 1)
		}
	}
	if done+pending+granted != workers*perG {
		t.Fatalf("snapshot lost sessions: %d+%d+%d != %d", done, pending, granted, workers*perG)
	}
}

// BenchmarkSessionsSharded measures registry throughput with every worker
// on its own diner — the contention shape the sharding exists for.
func BenchmarkSessionsSharded(b *testing.B) {
	b.ReportAllocs()
	s := NewSessions(0)
	var diner atomic.Int64
	var now atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		d := int(diner.Add(1))
		i := 0
		for pb.Next() {
			i++
			k := Key{Diner: d, ID: fmt.Sprintf("b-%d", i)}
			t := now.Add(1)
			s.Acquire(k, t)
			s.Attach(k, t)
			s.Grant(k, t)
			s.Release(k, t)
			s.Detach(k, t)
		}
	})
}
