package sim

import (
	"fmt"
	"math/bits"
	"sort"
)

// event is an internal kernel event: a message delivery, a process step, a
// timer expiry, or a generic scheduled closure. Events are totally ordered by
// (at, seq); seq is unique per event, so the order is strict and the queue
// needs no secondary tie-break.
//
// Events are stored by value, 56 bytes each (TestEventSize). Typed variants
// (kind + inline fields) exist so the hot paths — message arrival, process
// steps, timers — carry their payload inline instead of in a captured
// closure: a steady-state send or wake allocates nothing. A message travels
// as its fields, with the port as the kernel's index for the name (see
// Kernel.Handle); steps and timers name their process in to. evFunc remains
// the general escape hatch for cold paths (crash schedules, test hooks).
type event struct {
	at      Time
	seq     int64
	kind    evKind
	port    int32  // evArrive, evDeliver: the kernel's port index (Kernel.ports)
	from    int32  // evArrive, evDeliver: the sender
	to      int32  // evArrive, evDeliver: the receiver; evStep, evTimer: the process
	payload any    // evArrive, evDeliver: the message payload
	fn      func() // evFunc: arbitrary thunk; evTimer: the timer body
}

type evKind uint8

const (
	evFunc    evKind = iota // run fn()
	evArrive                // message reaches the link adversary (linkArrive)
	evDeliver               // message delivery bypassing the adversary (dup copies)
	evStep                  // scheduled guarded-action step of process to
	evTimer                 // After timer at to: skip if crashed, else fn() + wake
)

// wheelSize is the number of consecutive ticks the ring covers. A constant,
// not a knob: the kernel's delays, step gaps and protocol timers are tens of
// ticks, so all but a handful of events per run (crash schedules, era
// timers) land inside it, and those few are the overflow's job.
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// eventQueue is a calendar queue: pop returns the events pushed so far in
// (at, seq) order, each once the caller's horizon has reached it. The zero
// value is an empty queue ready to use.
//
// It is not a general priority queue. It relies on — and the kernel's
// scheduleEvent guarantees — a narrower contract than the heap it replaced
// (refHeap in queue_ref_test.go):
//
//   - seq is strictly increasing across pushes;
//   - at is never below base, the tick of the last popped event (0 before
//     the first pop). push panics on an event that is.
//
// Under that contract the events of one tick arrive already in seq order,
// so a tick is a FIFO and needs no comparisons. The ring holds one FIFO per
// tick of [base, base+wheelSize), indexed by at mod wheelSize, with an
// occupancy bitmap to find the next non-empty tick; FIFO nodes live in one
// slab, linked by index, with the vacated ones on a free list — after
// warm-up push and pop allocate nothing and the slab is as long as the ring
// ever was. Events at or beyond base+wheelSize wait in overflow, sorted by
// (at, seq), and move into the ring as base catches up with them.
//
// The one ordering hazard is a tick T that receives both: overflow events
// (pushed early, small seq) and direct pushes (T came within the window
// later, larger seq). The direct ones must queue behind the others, so pop
// drains the overflow whenever it advances base, before it returns — i.e.
// before the popped event fires and can push anything. That keeps the
// invariant "every overflow event is at or beyond base+wheelSize" between
// calls, which is what makes a direct push to T proof that T's overflow
// events are already in its FIFO. See DESIGN.md "Performance".
type eventQueue struct {
	base     Time // tick of the last popped event
	n        int  // events held: ring + overflow
	occupied [wheelSize / 64]uint64
	buckets  [wheelSize]bucket
	slab     []node  // slab[0] is unused, so index 0 can mean "none"
	free     int32   // head of the free list through node.next
	overflow []event // at - base >= wheelSize, sorted by (at, seq)
}

// bucket is the FIFO of one tick: slab indices, 0 = empty.
type bucket struct{ head, tail int32 }

type node struct {
	ev   event
	next int32
}

func (q *eventQueue) Len() int { return q.n }

// push inserts a copy of *e. See the contract on eventQueue.
func (q *eventQueue) push(e *event) {
	if e.at < q.base {
		panic(fmt.Sprintf("sim: event queue: push at t=%d behind the last popped tick %d", e.at, q.base))
	}
	q.n++
	if e.at-q.base < wheelSize {
		q.link(e)
		return
	}
	// Beyond the window. A later push at the same tick has the larger seq,
	// so inserting after every event of that tick keeps (at, seq) order.
	ov := q.overflow
	i := sort.Search(len(ov), func(i int) bool { return ov[i].at > e.at })
	ov = append(ov, event{})
	copy(ov[i+1:], ov[i:])
	ov[i] = *e
	q.overflow = ov
}

// link appends e to the FIFO of its tick, which must be inside the window.
func (q *eventQueue) link(e *event) {
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
	} else {
		if len(q.slab) == 0 {
			q.slab = append(q.slab, node{})
		}
		i = int32(len(q.slab))
		q.slab = append(q.slab, node{})
	}
	nd := &q.slab[i]
	nd.ev = *e
	nd.next = 0
	tick := int(e.at) & wheelMask
	b := &q.buckets[tick]
	if b.head == 0 {
		b.head = i
		q.occupied[tick>>6] |= 1 << (tick & 63)
	} else {
		q.slab[b.tail].next = i
	}
	b.tail = i
}

// first returns the ring index of the earliest non-empty tick. The ring must
// not be empty. Ticks wrap: the scan starts at base's slot and the last word
// it visits is the first one again, for the bits below base's.
func (q *eventQueue) first() int {
	start := int(q.base) & wheelMask
	w := start >> 6
	if m := q.occupied[w] >> (start & 63); m != 0 {
		return start + bits.TrailingZeros64(m)
	}
	for i := 1; i <= len(q.occupied); i++ {
		ww := (w + i) % len(q.occupied)
		if m := q.occupied[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: event queue: occupancy bitmap out of step with the ring")
}

// pop moves the minimum event into *e if it is at or before horizon; it
// returns false, and neither the queue nor *e changes, if the queue is empty
// or its minimum is later. When a pop moves base forward, the overflow events the window now
// covers are filed before pop returns (see eventQueue). The vacated node is
// cleared so the queue does not retain message payloads or closures beyond
// their lifetime.
func (q *eventQueue) pop(horizon Time, e *event) bool {
	switch {
	case q.n == 0:
		return false
	case q.n == len(q.overflow):
		// Empty ring: jump to the overflow's first tick, if it is due.
		if q.overflow[0].at > horizon {
			return false
		}
		q.advance(q.overflow[0].at)
	}
	tick := q.first()
	// A ring slot holds one tick of [base, base+wheelSize): its distance from
	// base's slot is the tick's distance from base.
	if q.base+Time((tick-int(q.base))&wheelMask) > horizon {
		return false
	}
	b := &q.buckets[tick]
	i := b.head
	nd := &q.slab[i]
	*e = nd.ev
	if b.head = nd.next; b.head == 0 {
		b.tail = 0
		q.occupied[tick>>6] &^= 1 << (tick & 63)
	}
	nd.ev.payload, nd.ev.fn = nil, nil
	nd.next = q.free
	q.free = i
	q.n--
	if e.at != q.base {
		q.advance(e.at)
	}
	return true
}

// advance moves base to t and files every overflow event the window has
// reached. None of them is earlier than t: they were beyond the old window,
// and t — the ring's first event, or theirs if the ring was empty — was not.
func (q *eventQueue) advance(t Time) {
	q.base = t
	ov := q.overflow
	k := 0
	for k < len(ov) && ov[k].at-t < wheelSize {
		q.link(&ov[k])
		k++
	}
	if k > 0 {
		rest := copy(ov, ov[k:])
		clear(ov[rest:])
		q.overflow = ov[:rest]
	}
}
