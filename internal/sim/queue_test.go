package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestQueueOrdering: popping returns events in (time, seq) order regardless
// of the order their times were pushed in (property-based). Times are
// unsigned — the queue's contract has no tick before the base — and range
// far past the ring, so most of them take the overflow path.
func TestQueueOrdering(t *testing.T) {
	prop := func(times []uint16) bool {
		var q eventQueue
		for i, tt := range times {
			q.push(&event{at: Time(tt), seq: int64(i)})
		}
		var got []event
		for q.Len() > 0 {
			got = append(got, q.pop())
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				return false
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueStability: equal-time events pop in insertion (seq) order, which
// is what makes runs deterministic.
func TestQueueStability(t *testing.T) {
	var q eventQueue
	const n = 100
	for i := 0; i < n; i++ {
		q.push(&event{at: 7, seq: int64(i)})
	}
	for i := 0; i < n; i++ {
		if e := q.pop(); e.seq != int64(i) {
			t.Fatalf("pop %d returned seq %d", i, e.seq)
		}
	}
}

// TestQueuePeek: peekAt returns the minimum time without removing anything.
func TestQueuePeek(t *testing.T) {
	var q eventQueue
	if _, ok := q.peekAt(); ok {
		t.Fatal("peekAt of empty queue should report !ok")
	}
	q.push(&event{at: 5, seq: 1})
	q.push(&event{at: 3, seq: 2})
	if at, ok := q.peekAt(); !ok || at != 3 {
		t.Fatalf("peekAt returned at=%d ok=%v, want 3 true", at, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("peekAt must not remove: len=%d", q.Len())
	}
}

// TestQueueMixedWorkload interleaves pushes and pops — each push at or after
// the last popped tick, as the contract requires — and checks that nothing
// is lost and that pops never go back in time.
func TestQueueMixedWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	seq := int64(0)
	var popped []Time
	var pushed []Time
	base := Time(0)
	for op := 0; op < 5000; op++ {
		if q.Len() == 0 || rng.Intn(3) > 0 {
			at := base + Time(rng.Intn(1000))
			seq++
			q.push(&event{at: at, seq: seq})
			pushed = append(pushed, at)
		} else {
			at := q.pop().at
			if at < base {
				t.Fatalf("pop went back in time: %d after %d", at, base)
			}
			base = at
			popped = append(popped, at)
		}
	}
	for q.Len() > 0 {
		popped = append(popped, q.pop().at)
	}
	sort.Slice(pushed, func(i, j int) bool { return pushed[i] < pushed[j] })
	if len(popped) != len(pushed) {
		t.Fatalf("lost events: %d vs %d", len(popped), len(pushed))
	}
	// The pop sequence must be a permutation of what was pushed.
	sorted := append([]Time(nil), popped...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := range sorted {
		if sorted[i] != pushed[i] {
			t.Fatalf("pop multiset differs at %d: %d vs %d", i, sorted[i], pushed[i])
		}
	}
}

// TestQueueNoSteadyStateAllocs: after warm-up, a push/pop cycle within the
// queue's high-water mark must not allocate — popped nodes go on the slab's
// free list and the next push takes them back.
func TestQueueNoSteadyStateAllocs(t *testing.T) {
	var q eventQueue
	seq := int64(0)
	for i := 0; i < 64; i++ {
		seq++
		q.push(&event{at: Time(i), seq: seq})
	}
	for q.Len() > 32 {
		q.pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		q.push(&event{at: q.base + Time(seq%97), seq: seq})
		q.pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %v times per run, want 0", allocs)
	}
}

// TestQueuePushBehindBasePanics: an event earlier than the last popped tick
// has no bucket it could be filed in without reordering; push refuses it.
func TestQueuePushBehindBasePanics(t *testing.T) {
	var q eventQueue
	q.push(&event{at: 10, seq: 1})
	q.pop()
	q.push(&event{at: 10, seq: 2}) // the base tick itself is still open
	defer func() {
		if recover() == nil {
			t.Fatal("push at t=9 after a pop at t=10 did not panic")
		}
	}()
	q.push(&event{at: 9, seq: 3})
}
