package lockproto

import (
	"sync"
	"sync/atomic"
)

// This file is the server-side session registry that makes the protocol
// safe to replay: clients reconnect after connection resets and re-send the
// requests of their current session (same Diner and ID), so every request
// must be idempotent. The registry is deterministic — no clocks, no
// goroutines; callers stamp every mutating call with their own notion of
// `now` (server ticks) — which is what makes it directly fuzzable.
//
// Concurrency. The registry is sharded by diner over a power-of-two shard
// array: a session's whole life happens under its diner's shard lock, so
// requests for independent diners never contend — the sharding that turned
// the old single registry mutex from a global serialization point into a
// per-diner one. Cross-shard state is three atomics (the acquire sequence,
// the done index's size and the journal hook); the janitor's Expire sweeps
// one shard at a time, so an expiry pass never stops the world either.

// Key identifies one session across connections.
type Key struct {
	Diner int
	ID    string
}

// AcquireResult classifies an acquire request against the registry.
type AcquireResult int

const (
	// AcquireNew: first sighting; the caller must schedule the session.
	AcquireNew AcquireResult = iota
	// AcquirePending: replay of an acquire still waiting for its grant; the
	// caller re-attaches the connection and waits.
	AcquirePending
	// AcquireGranted: replay of an acquire whose grant was already issued
	// (the original notification may have been lost with the connection);
	// the caller re-sends the grant event, but the critical section is NOT
	// re-entered — this is the no-double-grant guarantee.
	AcquireGranted
	// AcquireDone: replay of a session that already completed or expired;
	// it must not be resurrected.
	AcquireDone
)

// ReleaseResult classifies a release request.
type ReleaseResult int

const (
	// ReleaseGranted: the session held the critical section; the caller
	// must free it.
	ReleaseGranted ReleaseResult = iota
	// ReleasePending: released before the grant arrived; the caller must
	// unwind the queued work without ever handing out the section.
	ReleasePending
	// ReleaseDone: replay of a completed release; re-acknowledge only.
	ReleaseDone
	// ReleaseUnknown: never-seen session.
	ReleaseUnknown
)

type sessionStatus int

const (
	statusPending sessionStatus = iota
	statusGranted
)

// sessionRec is one live session; a finished one is an entry of the done
// index (done.go), not a record.
type sessionRec struct {
	status   sessionStatus
	attached int   // live connection bindings; only 0 lets the lease run
	lastSeen int64 // lease clock: last registry touch
	seq      int64 // first-acquire order, preserved across snapshot/replay
}

// sessionShards is the shard count: power of two, sized so that even a
// clique of diners on a large host rarely maps two hot diners to one lock.
const sessionShards = 16

// sesShard is one lock's worth of the registry. Padded to a cache line so
// neighbouring shards' locks never false-share.
type sesShard struct {
	mu   sync.Mutex
	recs map[Key]*sessionRec  // sessions in flight
	done map[doneKey]*doneSet // every session that finished; disjoint from recs
	_    [40]byte
}

// finish moves a live session into the done index.
func (s *Sessions) finish(sh *sesShard, k Key) {
	delete(sh.recs, k)
	if d := sh.markDone(k); d != 0 {
		s.doneSize.Add(int64(d))
	}
}

// Sessions tracks every session of one server run, keyed (diner, id).
// Completed sessions stay in the done index for good, so a frame replayed
// arbitrarily late can never re-grant. Detached sessions (their connection
// died) expire after the lease; attached ones never do. Bindings are *counted*
// (Attach/Detach), not flagged: a reconnecting client's new binding and the
// old connection's teardown race in either order, and only a commutative
// count guarantees the session stays pinned while at least one connection
// holds it. Safe for concurrent use; see the sharding note above.
type Sessions struct {
	lease    int64 // ticks a detached session survives; 0 = forever
	nextSeq  atomic.Int64
	doneSize atomic.Int64              // done-index entries + spans, all shards
	journal  atomic.Pointer[func(Rec)] // observes every mutation, under the shard lock
	shards   [sessionShards]sesShard
}

// DoneSize reports what the memory of finished sessions costs: done-index
// entries plus spans. Clients with sequential ids hold it at two per (client,
// diner); one id with no counter, or completed out of order, adds one.
func (s *Sessions) DoneSize() int64 { return s.doneSize.Load() }

// shard maps a key to its shard. The uint cast makes hostile negative
// diners (which the Release path does not pre-validate) wrap instead of
// panic.
func (s *Sessions) shard(k Key) *sesShard {
	return &s.shards[uint(k.Diner)%sessionShards]
}

// emit forwards a mutation to the journal. Callers hold the key's shard
// lock, so the journal sees a key's records in exactly the order its
// mutations were applied; records of different shards interleave in
// whatever order the WAL serializes them, which replay tolerates (every
// cross-key ordering it relies on is forced by the caller's own
// happens-before, e.g. a grant made durable before the release that follows).
func (s *Sessions) emit(r Rec) {
	if fn := s.journal.Load(); fn != nil {
		(*fn)(r)
	}
}

// NewSessions returns a registry whose detached sessions expire after lease
// ticks (0: never).
func NewSessions(lease int64) *Sessions {
	s := &Sessions{lease: lease}
	for i := range s.shards {
		s.shards[i].recs = make(map[Key]*sessionRec)
		s.shards[i].done = make(map[doneKey]*doneSet)
	}
	return s
}

// Acquire classifies (and, if new, registers) an acquire request. Any
// non-done sighting refreshes the lease clock; binding the connection is the
// caller's separate, explicitly paired Attach.
func (s *Sessions) Acquire(k Key, now int64) AcquireResult {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec, ok := sh.recs[k]; ok {
		rec.lastSeen = now
		if rec.status == statusGranted {
			return AcquireGranted
		}
		return AcquirePending
	}
	if sh.isDone(k) {
		return AcquireDone
	}
	sh.recs[k] = &sessionRec{status: statusPending, lastSeen: now, seq: s.nextSeq.Add(1) - 1}
	s.emit(Rec{K: RecAcquire, D: k.Diner, I: k.ID, T: now})
	return AcquireNew
}

// Abort removes a session registered by AcquireNew that could not be
// scheduled after all (e.g. the diner's queue was full), so the client may
// retry the same id later.
func (s *Sessions) Abort(k Key) {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec, ok := sh.recs[k]; ok && rec.status == statusPending {
		delete(sh.recs, k)
		s.emit(Rec{K: RecAbort, D: k.Diner, I: k.ID})
	}
}

// Grant moves a pending session into the critical section. It returns false
// if the session is no longer pending — released or expired while queued —
// in which case the caller must hand the section straight back. Grant can
// return true at most once per key, ever. The lease clock is refreshed only
// for a session some connection still holds: a dead client's queued acquire
// that reaches the head of the queue must not buy a whole fresh lease on the
// critical section, it keeps expiring one lease after its detach.
func (s *Sessions) Grant(k Key, now int64) bool {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.recs[k]
	if !ok || rec.status != statusPending {
		return false
	}
	rec.status = statusGranted
	if rec.attached > 0 {
		rec.lastSeen = now
	}
	s.emit(Rec{K: RecGrant, D: k.Diner, I: k.ID, T: now})
	return true
}

// Release completes a session (idempotently: replays get ReleaseDone).
func (s *Sessions) Release(k Key, now int64) ReleaseResult {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.recs[k]
	if !ok {
		if sh.isDone(k) {
			return ReleaseDone
		}
		return ReleaseUnknown
	}
	s.finish(sh, k)
	s.emit(Rec{K: RecRelease, D: k.Diner, I: k.ID, T: now})
	if rec.status == statusGranted {
		return ReleaseGranted
	}
	return ReleasePending
}

// Attach binds one more live connection to the session; a session with at
// least one binding never expires. Every Attach must eventually be paired
// with exactly one Detach. No-op on done sessions.
func (s *Sessions) Attach(k Key, now int64) {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec, ok := sh.recs[k]; ok {
		rec.attached++
		rec.lastSeen = now
		s.emit(Rec{K: RecAttach, D: k.Diner, I: k.ID, T: now})
	}
}

// Detach releases one connection binding; when the last one goes, the lease
// clock starts (or restarts) at now. Unpaired calls clamp at zero rather
// than corrupt the count.
func (s *Sessions) Detach(k Key, now int64) {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec, ok := sh.recs[k]; ok {
		if rec.attached > 0 {
			rec.attached--
		}
		rec.lastSeen = now
		s.emit(Rec{K: RecDetach, D: k.Diner, I: k.ID, T: now})
	}
}

// Expiry is one session reclaimed by Expire.
type Expiry struct {
	Key        Key
	WasGranted bool // it held the critical section; the caller must free it
}

// Expire marks every detached session idle for longer than the lease as
// done and returns them. A session is never returned twice, and an
// expired session behaves exactly like a released one afterwards: replayed
// acquires get AcquireDone, replayed releases get ReleaseDone. The sweep
// locks one shard at a time and recs holds only sessions in flight, so a
// pass costs what is in flight, not what was ever served, and never blocks
// the other shards' request traffic.
func (s *Sessions) Expire(now int64) []Expiry {
	if s.lease <= 0 {
		return nil
	}
	var out []Expiry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, rec := range sh.recs {
			if rec.attached > 0 || now-rec.lastSeen <= s.lease {
				continue
			}
			out = append(out, Expiry{Key: k, WasGranted: rec.status == statusGranted})
			s.finish(sh, k)
			s.emit(Rec{K: RecExpire, D: k.Diner, I: k.ID, T: now})
		}
		sh.mu.Unlock()
	}
	return out
}
