package sim

import (
	"math/rand"
	"testing"
)

// refHeap is the event queue the kernel used before the calendar queue of
// queue.go: an index-based 4-ary min-heap ordered by (at, seq), correct for
// any push order. It stays here as the oracle of TestQueueDifferential and
// FuzzEventQueue.
type refHeap struct {
	items []event
}

func (q *refHeap) Len() int { return len(q.items) }

func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, sifting it up from the new leaf.
func (q *refHeap) push(e event) {
	q.items = append(q.items, e)
	it := q.items
	i := len(it) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&e, &it[parent]) {
			break
		}
		it[i] = it[parent]
		i = parent
	}
	it[i] = e
}

// pop removes and returns the minimum event. The vacated tail slot is zeroed
// so the queue does not retain message payloads or closures beyond their
// lifetime (the slot itself stays in the slice's capacity for reuse).
func (q *refHeap) pop() event {
	it := q.items
	top := it[0]
	n := len(it) - 1
	last := it[n]
	it[n] = event{}
	q.items = it[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown places e (the displaced last element) starting from the root.
func (q *refHeap) siftDown(e event) {
	it := q.items
	n := len(it)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Select the minimum of the up-to-4 children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&it[j], &it[m]) {
				m = j
			}
		}
		if !less(&it[m], &e) {
			break
		}
		it[i] = it[m]
		i = m
	}
	it[i] = e
}

// peekAt returns the minimum event's time without removing it; ok is false
// on an empty queue.
func (q *refHeap) peekAt() (at Time, ok bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].at, true
}

// qop is one step of a differential schedule, in the kernel's vocabulary.
type qop struct {
	// 'p': push at now+arg; 'o': pop; 'r': Run(now+arg); 'd': draw a
	// step at now+arg, holding it aside as the kernel records an idle
	// step; 'i': insert held step number arg (mod the number held).
	op  byte
	arg Time
}

// diffQueues drives eventQueue and refHeap through the same schedule the way
// the kernel would — every push and draw stamped with the next seq at
// now+arg, now following the popped events, 'r' calling pop(horizon) until
// it refuses and parking now on the horizon when later events remain, 'i'
// inserting a held step into both if it still comes after the last popped
// event and dropping it, as lapsed, if not — and compares every popped
// (at, seq) and every refusal with the reference. After every step Len must
// agree, and a pop with the horizon one tick before the reference's minimum
// must refuse and leave the queue as it was. Then it drains both.
func diffQueues(t testing.TB, ops []qop) {
	t.Helper()
	var q eventQueue
	var ref refHeap
	var now Time
	var seq int64
	var held []event
	var last event // the last popped
	// pop pops up to horizon from both; it reports whether they popped.
	pop := func(step int, horizon Time) bool {
		var got event
		ok := q.pop(horizon, &got)
		next, refOK := ref.peekAt()
		if refOK = refOK && next <= horizon; ok != refOK {
			t.Fatalf("step %d: pop(%d) ok=%v (at=%d), reference next t=%d ok=%v", step, horizon, ok, got.at, next, refOK)
		}
		if !ok {
			return false
		}
		want := ref.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("step %d: popped (at=%d seq=%d), reference (at=%d seq=%d)", step, got.at, got.seq, want.at, want.seq)
		}
		now, last = got.at, got
		return true
	}
	agree := func(step int) {
		if q.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d, reference Len %d", step, q.Len(), ref.Len())
		}
		if next, ok := ref.peekAt(); ok {
			e := event{at: -1}
			if popped := q.pop(next-1, &e); popped || q.Len() != ref.Len() || e.at != -1 {
				t.Fatalf("step %d: pop(%d) with the minimum at t=%d popped t=%d (ok=%v), Len %d",
					step, next-1, next, e.at, popped, q.Len())
			}
		}
	}
	for i, o := range ops {
		switch o.op {
		case 'p':
			seq++
			e := event{at: now + o.arg, seq: seq}
			q.push(&e)
			ref.push(e)
		case 'd':
			seq++
			held = append(held, event{at: now + o.arg, seq: seq})
		case 'i':
			if len(held) == 0 {
				break
			}
			j := int(o.arg) % len(held)
			e := held[j]
			held = append(held[:j], held[j+1:]...)
			if !less(&last, &e) {
				break // lapsed: it would have popped before the last pop
			}
			q.insert(&e)
			ref.push(e)
		case 'o':
			pop(i, forever)
		case 'r':
			horizon := now + o.arg
			for pop(i, horizon) {
			}
			if ref.Len() > 0 {
				now = horizon
			}
		}
		agree(i)
	}
	for i := len(ops); ref.Len() > 0; i++ {
		pop(i, forever)
		agree(i)
	}
}

func pushes(deltas ...Time) []qop {
	ops := make([]qop, len(deltas))
	for i, d := range deltas {
		ops[i] = qop{'p', d}
	}
	return ops
}

func draws(deltas ...Time) []qop {
	ops := pushes(deltas...)
	for i := range ops {
		ops[i].op = 'd'
	}
	return ops
}

func inserts(idx ...Time) []qop {
	ops := make([]qop, len(idx))
	for i, j := range idx {
		ops[i] = qop{'i', j}
	}
	return ops
}

func pops(n int) []qop {
	ops := make([]qop, n)
	for i := range ops {
		ops[i] = qop{op: 'o'}
	}
	return ops
}

func script(parts ...[]qop) []qop {
	var ops []qop
	for _, p := range parts {
		ops = append(ops, p...)
	}
	return ops
}

// TestQueueDifferential: the calendar queue pops what the heap pops, on the
// edges of its window and on kernel-shaped random schedules.
func TestQueueDifferential(t *testing.T) {
	cases := []struct {
		name string
		ops  []qop
	}{
		{"window edge", pushes(257, 256, 255, 254, 1, 255, 256, 257, 0)},
		{"window edge after advancing", script(
			pushes(3), pops(1), pushes(257, 256, 255, 0, 255, 256, 257), pops(3), pushes(253, 254, 255, 256))},
		// Nothing in the ring, two far events: base must jump, twice.
		{"base jump over an empty ring", script(
			pushes(1000, 5000, 1000), pops(1), pushes(1, 255, 256, 4000), pops(2), pushes(0, 1))},
		// Tick 300 is beyond the window at first (overflow), then within it:
		// the direct pushes must pop after the overflowed ones.
		{"direct pushes behind drained overflow", script(
			pushes(300, 300, 100), pops(1), pushes(200, 200, 199), pops(2), pushes(1), pops(8))},
		{"drain lands on the tick being popped", script(
			pushes(10, 266, 266), pops(1), pushes(256, 0), pops(1), pushes(255))},
		// Run(h1) leaves now on the horizon, ahead of base: small deltas
		// from there can fall past the window; Run(h2) must still see them
		// in order.
		{"now parked on a horizon", script(
			pushes(5, 900), []qop{{'r', 600}}, pushes(1, 2, 300, 44, 45), []qop{{'r', 100}}, pushes(1, 1, 256), []qop{{'r', 1000}})},
		{"horizon exactly on an event", script(
			pushes(10, 20), []qop{{'r', 10}}, pushes(10, 246, 247), []qop{{'r', 10}}, pushes(0))},
		{"same far tick, many", script(pushes(700, 700, 700, 300, 700), pops(2), pushes(400, 400, 399, 401))},
		// Ring events and overflow events, and a horizon between two
		// overflow ticks: the ring drains, the first overflow tick is filed
		// and popped, the second stays put.
		{"horizon inside the overflow", script(
			pushes(3, 40, 1000, 3000, 3000), []qop{{'r', 2000}}, pushes(5, 600), []qop{{'r', 999}}, pops(1), []qop{{'r', 5000}})},
		// Only overflow events: a horizon short of the first must not move
		// base (a later push near now would then be behind it).
		{"horizon with an empty ring", script(
			pushes(900, 2000), []qop{{'r', 500}}, pushes(1, 300), pops(1), []qop{{'r', 300}}, pushes(0, 400), []qop{{'r', 1000}, {'r', 1000}})},
		// Inserts: an older seq filed into a tick that already holds later
		// ones — at its head, in its middle, behind its tail — in the ring
		// and in the overflow, and one whose tick was popped past (lapsed).
		{"older seq ahead of a tick's FIFO", script(draws(5), pushes(5, 5, 5), inserts(0), pops(4))},
		{"older seq inside a tick's FIFO", script(
			pushes(4), draws(4, 4), pushes(4, 4), inserts(1), pushes(4), inserts(0), pops(6))},
		{"older seq behind a tick's FIFO", script(pushes(6, 6), draws(6), inserts(0), pushes(6), pops(4))},
		{"older seq into the overflow", script(
			draws(300, 300), pushes(300, 300, 2), inserts(1, 0), pops(1), pushes(299), pops(5))},
		{"older seq into an overflow tick the window reaches", script(
			draws(300), pushes(300, 50), pops(1), inserts(0), pops(2))},
		{"lapsed: its tick was popped past", script(draws(5, 9), pushes(5, 5), pops(2), inserts(0, 0), pops(1))},
		{"insert at the tick being popped", script(pushes(3, 3), pops(1), draws(0), pushes(3), inserts(0), pops(3))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { diffQueues(t, tc.ops) })
	}

	// Kernel-shaped random schedules: a couple of dozen events in flight,
	// most a few ticks ahead, a few far ahead, the odd horizon.
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []qop
		inFlight := 0
		for len(ops) < 20000 {
			switch r := rng.Intn(100); {
			case r < 2:
				ops = append(ops, qop{'r', Time(rng.Intn(600))})
				inFlight = 0 // unknown; the pop branch tolerates empty
			case inFlight > 0 && (r < 50 || inFlight > 40):
				ops = append(ops, qop{op: 'o'})
				inFlight--
			case r < 65:
				// An idle step: mostly lapses, sometimes inserted later.
				ops = append(ops, qop{'d', Time(1 + rng.Intn(3))})
				if rng.Intn(8) == 0 {
					ops = append(ops, qop{'i', Time(rng.Intn(4))})
				}
			default:
				d := Time(rng.Intn(9))
				switch rng.Intn(50) {
				case 0:
					d = Time(250 + rng.Intn(12))
				case 1:
					d = Time(rng.Intn(5000))
				case 2, 3, 4:
					d = Time(10 + rng.Intn(110))
				}
				ops = append(ops, qop{'p', d})
				inFlight++
			}
		}
		diffQueues(t, ops)
	}
}

// FuzzEventQueue decodes the input into a schedule (two bytes per step) and
// runs the same differential. The delta encoding over-samples the window's
// edge; draws and inserts interleave with pushes and pops.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0x85, 0, 0x86, 0, 0x87, 4, 0, 0, 0x86, 7, 200, 0, 1, 4, 0, 4, 0})
	f.Add([]byte{0, 0xff, 0, 0xc8, 4, 0, 0, 0x86, 0, 0, 7, 255, 0, 3, 0, 0xc1, 7, 255})
	f.Add([]byte{8, 2, 0, 2, 0, 2, 9, 0, 4, 0, 4, 0, 8, 249, 0, 0xc5, 9, 0, 7, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []qop
		for i := 0; i+1 < len(data); i += 2 {
			v := Time(data[i+1])
			switch data[i] % 10 {
			case 0, 1, 2, 3:
				var d Time
				switch v >> 6 {
				case 0, 1:
					d = v & 15 // the common case: a few ticks ahead
				case 2:
					d = 250 + v&15 // 250..265, around base+wheelSize
				default:
					d = (v & 63) * 40 // up to 2520: overflow
				}
				ops = append(ops, qop{'p', d})
			case 4, 5, 6:
				ops = append(ops, qop{op: 'o'})
			case 7:
				ops = append(ops, qop{'r', v * 3})
			case 8:
				ops = append(ops, qop{'d', v % 4 * (v/4%2*120 + 1)}) // 0..3 ticks, or up to 363: overflow
			default:
				ops = append(ops, qop{'i', v})
			}
		}
		diffQueues(t, ops)
	})
}
