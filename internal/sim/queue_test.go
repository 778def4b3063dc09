package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// forever is a horizon no event reaches: pop(forever) pops unconditionally.
const forever = Time(math.MaxInt64)

// popAny pops the minimum event of a non-empty queue.
func popAny(t testing.TB, q *eventQueue) event {
	t.Helper()
	var e event
	if !q.pop(forever, &e) {
		t.Fatalf("pop of a queue holding %d events returned nothing", q.Len())
	}
	return e
}

// TestEventSize pins the event at 56 bytes: a queue node is one event, and
// every push and pop copies one.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 56 {
		t.Fatalf("event is %d bytes, want at most 56", size)
	}
}

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
			got = append(got, popAny(t, &q))
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
		if e := popAny(t, &q); e.seq != int64(i) {
			t.Fatalf("pop %d returned seq %d", i, e.seq)
		}
	}
}

// TestQueuePopHorizon: pop refuses an empty queue and a minimum past the
// horizon without removing anything or writing the caller's event, and pops
// an event exactly on it — in the ring and, with the ring empty, in the
// overflow.
func TestQueuePopHorizon(t *testing.T) {
	var q eventQueue
	if q.pop(forever, new(event)) {
		t.Fatal("pop of an empty queue should report !ok")
	}
	q.push(&event{at: 5, seq: 1})
	q.push(&event{at: 3, seq: 2})
	q.push(&event{at: 1000, seq: 3})
	for _, tc := range []struct {
		horizon Time
		at      Time // 0: nothing may pop
	}{{2, 0}, {3, 3}, {4, 0}, {999, 5}, {999, 0}, {1000, 1000}} {
		before := q.Len()
		e := event{at: -1}
		ok := q.pop(tc.horizon, &e)
		switch {
		case tc.at == 0 && (ok || q.Len() != before || e.at != -1):
			t.Fatalf("pop(%d) popped t=%d (ok=%v), len %d -> %d", tc.horizon, e.at, ok, before, q.Len())
		case tc.at != 0 && (!ok || e.at != tc.at):
			t.Fatalf("pop(%d) = t=%d ok=%v, want t=%d", tc.horizon, e.at, ok, tc.at)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d events left", q.Len())
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
			at := popAny(t, &q).at
			if at < base {
				t.Fatalf("pop went back in time: %d after %d", at, base)
			}
			base = at
			popped = append(popped, at)
		}
	}
	for q.Len() > 0 {
		popped = append(popped, popAny(t, &q).at)
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

// TestQueueNoSteadyStateAllocs: after warm-up, a push/insert/pop cycle
// within the queue's high-water mark must not allocate — popped nodes go on
// the slab's free list and the next push or insert takes them back.
func TestQueueNoSteadyStateAllocs(t *testing.T) {
	var q eventQueue
	seq := int64(0)
	for i := 0; i < 64; i++ {
		seq++
		q.push(&event{at: Time(i), seq: seq})
	}
	for q.Len() > 32 {
		popAny(t, &q)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		seq += 2
		at := q.base + Time(seq%97)
		q.push(&event{at: at, seq: seq})
		q.insert(&event{at: at, seq: seq - 1}) // the older seq: ahead of the push
		q.pop(forever, new(event))
		q.pop(forever, new(event))
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
	popAny(t, &q)
	q.push(&event{at: 10, seq: 2}) // the base tick itself is still open
	defer func() {
		if recover() == nil {
			t.Fatal("push at t=9 after a pop at t=10 did not panic")
		}
	}()
	q.push(&event{at: 9, seq: 3})
}
