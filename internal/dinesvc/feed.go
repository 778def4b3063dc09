package dinesvc

import (
	"sync"

	"repro/internal/lockproto"
	"repro/internal/metrics"
	"repro/internal/rt"
)

// suspectFeed is an rt.Tracer that mirrors the extraction oracle's
// suspect/trust records into per-subscriber channels, and keeps the current
// suspicion matrix so a new watcher starts from a consistent snapshot.
// Record delivery is already serialized by the runtime's emit lock; the
// feed's own mutex makes snapshot-plus-subscribe atomic against it.
//
// The oracle runs over one table's runtime, whose proc ids are table-local;
// the feed translates them through globals so the watch stream speaks the
// same diner ids clients acquire with. A single-table service passes the
// identity mapping.
type suspectFeed struct {
	inst    string
	globals []int // local proc id → global diner id

	// Churn counters, assigned once by newTable before the runtime starts
	// (nil-safe: a feed built outside a table just skips them).
	suspects *metrics.Counter
	trusts   *metrics.Counter
	droppedC *metrics.Counter

	mu     sync.Mutex
	cur    map[[2]int]bool
	subs   map[int]chan lockproto.Event
	nextID int
}

func newSuspectFeed(inst string, globals []int) *suspectFeed {
	return &suspectFeed{
		inst:    inst,
		globals: globals,
		cur:     make(map[[2]int]bool),
		subs:    make(map[int]chan lockproto.Event),
	}
}

// global maps a table-local proc id to the global diner id clients see.
func (f *suspectFeed) global(p int) int {
	if p >= 0 && p < len(f.globals) {
		return f.globals[p]
	}
	return p
}

// Trace implements rt.Tracer.
func (f *suspectFeed) Trace(r rt.Record) {
	if r.Inst != f.inst || (r.Kind != "suspect" && r.Kind != "trust") {
		return
	}
	ev := lockproto.Event{
		Ev: lockproto.EvSuspect,
		Of: f.global(int(r.P)), Peer: f.global(int(r.Peer)),
		Suspect: r.Kind == "suspect",
		T:       int64(r.T),
	}
	if ev.Suspect {
		f.suspects.Inc()
	} else {
		f.trusts.Inc()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ev.Suspect {
		f.cur[[2]int{ev.Of, ev.Peer}] = true
	} else {
		delete(f.cur, [2]int{ev.Of, ev.Peer})
	}
	for _, ch := range f.subs {
		select {
		case ch <- ev:
		default:
			f.droppedC.Inc()
		}
	}
}

// subscribe returns the current suspicion matrix as events, a channel that
// will carry every subsequent change, and a cancel function.
func (f *suspectFeed) subscribe() ([]lockproto.Event, <-chan lockproto.Event, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	snapshot := make([]lockproto.Event, 0, len(f.cur))
	for pq := range f.cur {
		snapshot = append(snapshot, lockproto.Event{
			Ev: lockproto.EvSuspect, Of: pq[0], Peer: pq[1], Suspect: true,
		})
	}
	id := f.nextID
	f.nextID++
	ch := make(chan lockproto.Event, 256)
	f.subs[id] = ch
	cancel := func() {
		f.mu.Lock()
		delete(f.subs, id)
		f.mu.Unlock()
	}
	return snapshot, ch, cancel
}

// multiTracer fans one record stream out to several tracers.
type multiTracer []rt.Tracer

// Trace implements rt.Tracer.
func (m multiTracer) Trace(r rt.Record) {
	for _, t := range m {
		t.Trace(r)
	}
}
