package dinesvc

import (
	"sync"
	"time"

	"repro/internal/dining"
	"repro/internal/lockproto"
	"repro/internal/rt"
)

// seat serves one diner's sessions, one at a time, as steps of the diner's
// own process — in the paper's model the client *is* the process, so the
// hunger, the reaction to eating and the exit are its atomic steps. There is
// no goroutine here: connection handlers and the janitor queue work under mu
// and kick the process; advance, the one step, reads the diner's state and
// does the single thing that state calls for.
//
// The seat lives on a table: p is the diner's local proc id on that table's
// runtime, while the sessions it serves carry the global diner id
// (ses.key.Diner) — the id clients speak and the registry records.
type seat struct {
	t    *Table
	p    rt.ProcID // table-local proc id
	d    dining.Diner
	step func() // advance as a func value, built once: a kick allocates nothing

	// mu guards the index and the FIFO, which handlers and the janitor reach
	// from their own goroutines — also while the process is crashed, when
	// nothing else of the seat moves.
	mu    sync.Mutex
	byID  map[string]*session // every in-flight session of this diner
	queue []*session          // acquires waiting their turn, oldest at head
	head  int

	// cur is the session being served and phase how far it got. Only advance
	// touches them, so they are process-local state like the diner's own.
	cur   *session
	phase seatPhase
}

type seatPhase int

const (
	seatWants   seatPhase = iota // cur needs the critical section
	seatHolds                    // cur owns it until released or expired
	seatUnwinds                  // cur lost it while queued: hand it straight back
)

func newSeat(t *Table, p rt.ProcID, d dining.Diner) *seat {
	st := &seat{t: t, p: p, d: d, byID: make(map[string]*session)}
	st.step = st.advance
	// Registered before Start; fires on p's goroutine, inside the dining
	// layer's own step, so the reaction is queued as the next step instead
	// of re-entering the diner. forks.Table.Reset fires Thinking as well: a
	// chaos restart re-requests, or finishes a released session, through
	// this same hook.
	d.OnChange(func(s dining.State) {
		if s == dining.Eating || s == dining.Thinking {
			st.kick()
		}
	})
	return st
}

// kick schedules one advance step. Refused while the process is crashed;
// the restart's Thinking transition kicks again, and advance only ever acts
// on the state it finds, so no kick needs remembering.
func (st *seat) kick() { st.t.r.Invoke(st.p, st.step) }

// enqueue indexes ses and appends it to the FIFO; false means the diner
// already has queueCap acquires waiting.
func (st *seat) enqueue(ses *session) bool {
	st.mu.Lock()
	if len(st.queue)-st.head >= queueCap {
		st.mu.Unlock()
		return false
	}
	st.byID[ses.key.ID] = ses
	st.queue = append(st.queue, ses)
	st.mu.Unlock()
	st.kick()
	return true
}

func (st *seat) get(id string) *session {
	st.mu.Lock()
	ses := st.byID[id]
	st.mu.Unlock()
	return ses
}

func (st *seat) drop(ses *session) {
	st.mu.Lock()
	delete(st.byID, ses.key.ID)
	st.mu.Unlock()
}

// next pops the oldest waiting acquire, nil if none. An emptied queue
// rewinds onto its backing array, so steady traffic does not reallocate it.
func (st *seat) next() *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.head == len(st.queue) {
		return nil
	}
	ses := st.queue[st.head]
	st.queue[st.head] = nil
	if st.head++; st.head == len(st.queue) {
		st.queue, st.head = st.queue[:0], 0
	}
	return ses
}

// release frees a granted session's critical section: the client released
// it or its lease expired. Idempotent — the two may race.
func (st *seat) release(id string) {
	if ses := st.get(id); ses != nil {
		ses.released.Store(true)
		st.kick()
	}
}

// ackGrant is a grant's ack: count it and tell the client.
func (st *seat) ackGrant(ses *session) {
	t := st.t
	if ses.regrant {
		t.m.regranted.Inc()
	} else {
		t.m.granted.Inc()
		t.m.grantLat.ObserveDuration(time.Since(ses.start))
	}
	t.m.held.Add(1)
	if ses.regrant && ses.released.Load() {
		// Released or expired while the section was being re-won: the
		// client must not see EvGranted after its release.
		return
	}
	ses.markGranted(lockproto.Event{
		Ev: lockproto.EvGranted, Diner: ses.key.Diner, ID: ses.key.ID, T: t.now(),
	})
}

// ackRelease is a release's ack: count it, tell the client, forget the session.
func (st *seat) ackRelease(ses *session) {
	t := st.t
	t.m.released.Inc()
	t.m.held.Add(-1)
	ses.notify(lockproto.Event{
		Ev: lockproto.EvReleased, Diner: ses.key.Diner, ID: ses.key.ID, T: t.now(),
	})
	st.drop(ses)
	t.inFlight.Add(-1)
}

// advance is the seat's one step; it runs on the diner's process. It loops
// only to carry on from a transition that needs no waiting, and returns
// wherever the next move belongs to someone else: the dining layer (Eating,
// Thinking), the client (release) or the next acquire — each of which kicks.
func (st *seat) advance() {
	t := st.t
	for {
		if st.cur == nil {
			if st.cur = st.next(); st.cur == nil {
				return
			}
			st.phase = seatWants
		}
		ses, state := st.cur, st.d.State()
		switch st.phase {
		case seatWants:
			if state == dining.Thinking {
				// Also the way back after a crash took the hunger with it.
				st.d.Hungry()
				return
			}
			if state != dining.Eating {
				return
			}
			// A recovered grant already owns the section in the registry —
			// the crash just evicted it from the dining layer, which is now
			// re-won: no second registry transition, no second grant record.
			if !ses.regrant && !t.sessions.Grant(ses.key, t.now()) {
				// Released or expired while queued: never expose the section.
				st.phase = seatUnwinds
				st.d.Exit()
				return
			}
			st.phase = seatHolds
			// The grant record must be on disk before the client can act on
			// the grant — an acknowledged critical section that a crash
			// forgets would be re-granted on recovery.
			t.dur.after(func() { st.ackGrant(ses) })

		case seatHolds:
			if !ses.released.Load() {
				return
			}
			if state == dining.Eating {
				st.d.Exit()
			}
			if state != dining.Thinking {
				return
			}
			// Out of the critical section — by an earlier step's Exit, or
			// because a crash of the process threw it out first. Same
			// durability rule as the grant: the release record must not be
			// lost once the client has seen the ack, or recovery would
			// resurrect a finished session. The session leaves inFlight inside
			// the ack, after the event is queued, so Drain cannot end its
			// connection ahead of the event.
			t.dur.after(func() { st.ackRelease(ses) })
			st.cur = nil

		case seatUnwinds:
			if state != dining.Thinking {
				return
			}
			st.drop(ses)
			t.inFlight.Add(-1)
			st.cur = nil
		}
	}
}
