package dinesvc

import (
	"sync"

	"repro/internal/lockproto"
	"repro/internal/metrics"
	"repro/internal/rt"
)

// suspectFeed is an rt.Tracer that writes the extraction oracle's
// suspect/trust records to every watching connection, and keeps the current
// suspicion matrix so a new watcher starts from a consistent snapshot.
// Record delivery is already serialized by the runtime's emit lock; the
// feed's own mutex makes snapshot-plus-subscribe atomic against it, so a
// watcher sees the snapshot and then every later change, in order.
//
// Sending never blocks (jconn.send queues on the connection's flush
// writer). A send is refused only when the connection is dead or its client
// has stopped reading; jconn.send then closes the socket, and the feed drops
// the subscriber: a watcher gets every change or loses its connection.
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

	mu   sync.Mutex
	cur  map[[2]int]bool
	subs map[*jconn]bool
}

func newSuspectFeed(inst string, globals []int) *suspectFeed {
	return &suspectFeed{
		inst:    inst,
		globals: globals,
		cur:     make(map[[2]int]bool),
		subs:    make(map[*jconn]bool),
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
	for jc := range f.subs {
		if !jc.send(ev) {
			delete(f.subs, jc)
		}
	}
}

// subscribe sends jc the current suspicion matrix and registers it for
// every subsequent change.
func (f *suspectFeed) subscribe(jc *jconn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for pq := range f.cur {
		if !jc.send(lockproto.Event{Ev: lockproto.EvSuspect, Of: pq[0], Peer: pq[1], Suspect: true}) {
			return
		}
	}
	f.subs[jc] = true
}

// unsubscribe stops the changes to jc.
func (f *suspectFeed) unsubscribe(jc *jconn) {
	f.mu.Lock()
	delete(f.subs, jc)
	f.mu.Unlock()
}

// multiTracer fans one record stream out to several tracers.
type multiTracer []rt.Tracer

// Trace implements rt.Tracer.
func (m multiTracer) Trace(r rt.Record) {
	for _, t := range m {
		t.Trace(r)
	}
}
