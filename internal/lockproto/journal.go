package lockproto

import (
	"encoding/json"
	"fmt"
	"sort"
)

// This file makes the session registry durable: every mutating transition
// emits one Rec, the server's WAL persists them in mutation order, and
// Replay folds a snapshot plus a record suffix back into an equivalent
// registry after a crash.
//
// The replay contract is idempotency at the cut: the snapshot is built
// *after* the WAL rotates (see internal/wal), so the first few records of
// the new segment may describe transitions the snapshot already contains.
// Every record application below therefore tolerates finding its effect
// already in place. The one thing that is never tolerated — and is surfaced
// as a Violation instead of silently absorbed — is two grant *records* for
// the same key: a single append lands in exactly one segment, so a
// duplicated grant in the record chain means the live server really did
// hand out the critical section twice.

// Record kinds, one per mutating Sessions transition plus the two the
// server journals directly (clock ticks and fork-ownership moves).
const (
	RecAcquire = "acq"   // first sighting of a session
	RecGrant   = "grant" // session entered the critical section
	RecRelease = "rel"   // session completed
	RecAttach  = "att"   // a connection bound the session
	RecDetach  = "det"   // a connection unbound it
	RecExpire  = "exp"   // the janitor reclaimed it
	RecAbort   = "abort" // an unschedulable AcquireNew was unwound
	RecTick    = "tick"  // server clock watermark (no session payload)
	RecFork    = "fork"  // process P's hold bit for edge {P,Q} became H
)

// Rec is one journal record. Field names are compressed because every
// mutation writes one of these to disk.
type Rec struct {
	K string `json:"k"`
	D int    `json:"d,omitempty"` // session diner
	I string `json:"i,omitempty"` // session id
	T int64  `json:"t,omitempty"` // server tick of the transition
	P int    `json:"p,omitempty"` // fork edge endpoint (owner side)
	Q int    `json:"q,omitempty"` // fork edge endpoint (other side)
	H bool   `json:"h,omitempty"` // fork hold bit
}

// Encode marshals the record for the WAL.
func (r Rec) Encode() []byte {
	b, err := json.Marshal(r)
	if err != nil { // unreachable for this struct; keep the journal honest
		panic(err)
	}
	return b
}

// SessionState is one session in a snapshot.
type SessionState struct {
	Diner    int    `json:"d"`
	ID       string `json:"i"`
	Status   string `json:"s"` // "pending" | "granted" | "done"
	LastSeen int64  `json:"t"`
	Attached int    `json:"a,omitempty"`
}

// ForkState is one process's hold bit for one edge in a snapshot.
type ForkState struct {
	P    int  `json:"p"`
	Q    int  `json:"q"`
	Hold bool `json:"h"`
}

// State is a snapshot payload: the full registry at a clock watermark. The
// Sessions slice is in first-acquire order, which Replay preserves so that
// recovered sessions re-enter the dining layer in their original order.
type State struct {
	Watermark int64          `json:"w"`
	Sessions  []SessionState `json:"sessions,omitempty"`
	Forks     []ForkState    `json:"forks,omitempty"`
}

// Encode marshals the snapshot payload.
func (st State) Encode() []byte {
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return b
}

// DecodeState unmarshals a snapshot payload.
func DecodeState(data []byte) (State, error) {
	var st State
	err := json.Unmarshal(data, &st)
	return st, err
}

func statusName(st sessionStatus) string {
	switch st {
	case statusPending:
		return "pending"
	case statusGranted:
		return "granted"
	default:
		return "done"
	}
}

func parseStatus(s string) (sessionStatus, error) {
	switch s {
	case "pending":
		return statusPending, nil
	case "granted":
		return statusGranted, nil
	case "done":
		return statusDone, nil
	}
	return 0, fmt.Errorf("unknown session status %q", s)
}

// RecoveredSession is one non-done session Replay found, in first-acquire
// order. Granted sessions must be re-queued through the dining layer before
// the server serves traffic (they hold the critical section).
type RecoveredSession struct {
	Key     Key
	Granted bool
}

// Edge identifies one fork edge, P < Q.
type Edge struct{ P, Q int }

// Recovered is the state Replay rebuilt.
type Recovered struct {
	Sessions  *Sessions
	Live      []RecoveredSession // non-done sessions, first-acquire order
	Forks     map[Edge]bool      // true: the lower endpoint holds the fork
	Watermark int64              // highest tick any snapshot or record saw
	Counts    map[string]int     // records applied, per kind
	// Violations are safety breaches the ledger itself proves — today only
	// double grants. A non-empty list means the pre-crash run was unsafe.
	Violations []string
}

// Replay folds a snapshot (nil for none) and the WAL records behind it into
// a fresh registry with the given lease. It returns an error only for
// undecodable input; safety breaches recorded in the ledger come back as
// Violations so callers can inspect a corrupt-but-parseable history.
//
// Callers restarting a server must follow up with
// Sessions.ResetBindings(Recovered.Watermark): the crash severed every
// connection, so attach counts are stale, and every surviving session gets
// a fresh lease from the watermark to re-attach.
func Replay(lease int64, snapshot []byte, records [][]byte) (*Recovered, error) {
	r := &Recovered{Forks: make(map[Edge]bool), Counts: make(map[string]int)}
	s := NewSessions(lease)
	grants := make(map[Key]int)
	holds := make(map[[2]int]bool) // directed: (p,q) -> p's hold bit for {p,q}
	var order []Key

	if snapshot != nil {
		st, err := DecodeState(snapshot)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		r.Watermark = st.Watermark
		for _, ss := range st.Sessions {
			status, err := parseStatus(ss.Status)
			if err != nil {
				return nil, fmt.Errorf("snapshot session %d/%s: %w", ss.Diner, ss.ID, err)
			}
			k := Key{Diner: ss.Diner, ID: ss.ID}
			s.putRec(k, &sessionRec{status: status, attached: ss.Attached, lastSeen: ss.LastSeen, seq: s.nextSeq.Add(1) - 1})
			order = append(order, k)
		}
		for _, f := range st.Forks {
			holds[[2]int{f.P, f.Q}] = f.Hold
		}
	}

	for idx, raw := range records {
		var rec Rec
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("record %d: %w", idx+1, err)
		}
		r.Counts[rec.K]++
		if rec.T > r.Watermark {
			r.Watermark = rec.T
		}
		k := Key{Diner: rec.D, ID: rec.I}
		switch rec.K {
		case RecAcquire:
			if sr, ok := s.getRec(k); ok {
				// Snapshot-cut duplicate: the session is already here.
				if rec.T > sr.lastSeen {
					sr.lastSeen = rec.T
				}
			} else {
				s.putRec(k, &sessionRec{status: statusPending, lastSeen: rec.T, seq: s.nextSeq.Add(1) - 1})
				order = append(order, k)
			}
		case RecGrant:
			if grants[k]++; grants[k] > 1 {
				r.Violations = append(r.Violations,
					fmt.Sprintf("session %d/%s has %d grant records (double grant)", k.Diner, k.ID, grants[k]))
			}
			sr, ok := s.getRec(k)
			if !ok {
				r.Violations = append(r.Violations,
					fmt.Sprintf("grant record for unknown session %d/%s", k.Diner, k.ID))
				continue
			}
			if sr.status == statusPending {
				sr.status = statusGranted
			}
			// Same rule as the live Grant: a detached session's lease keeps
			// running from its detach.
			if sr.attached > 0 && rec.T > sr.lastSeen {
				sr.lastSeen = rec.T
			}
		case RecRelease:
			if sr, ok := s.getRec(k); ok {
				s.shard(k).finish(k, sr, rec.T)
			}
		case RecExpire:
			if sr, ok := s.getRec(k); ok {
				s.shard(k).finish(k, sr, rec.T)
				// The live janitor only expires sessions with no bindings;
				// zeroing here erases any attach-count skew a snapshot-cut
				// duplicate left behind.
				sr.attached = 0
			}
		case RecAttach:
			if sr, ok := s.getRec(k); ok && sr.status != statusDone {
				sr.attached++
				sr.lastSeen = rec.T
			}
		case RecDetach:
			if sr, ok := s.getRec(k); ok && sr.status != statusDone {
				if sr.attached > 0 {
					sr.attached--
				}
				sr.lastSeen = rec.T
			}
		case RecAbort:
			if sr, ok := s.getRec(k); ok && sr.status == statusPending {
				s.delRec(k)
			}
		case RecTick:
			// Nothing beyond the watermark advance above.
		case RecFork:
			if rec.P != rec.Q {
				holds[[2]int{rec.P, rec.Q}] = rec.H
			}
		default:
			return nil, fmt.Errorf("record %d: unknown kind %q", idx+1, rec.K)
		}
	}

	seen := make(map[Key]bool)
	for _, k := range order {
		sr, ok := s.getRec(k)
		if !ok || sr.status == statusDone || seen[k] {
			continue
		}
		seen[k] = true
		r.Live = append(r.Live, RecoveredSession{Key: k, Granted: sr.status == statusGranted})
	}

	// Fold directional hold bits into one owner per edge. Exactly one side
	// holding is the steady state; neither holding means the fork was in
	// flight when the server died, and both holding can only come from a
	// corrupt history — either way the lower endpoint mints a fresh fork,
	// which preserves the one-fork-per-edge invariant.
	type edgeBits struct{ lo, hi bool }
	edges := make(map[Edge]*edgeBits)
	for dk, h := range holds {
		p, q := dk[0], dk[1]
		e, isLo := Edge{P: p, Q: q}, true
		if p > q {
			e, isLo = Edge{P: q, Q: p}, false
		}
		eb := edges[e]
		if eb == nil {
			eb = &edgeBits{}
			edges[e] = eb
		}
		if isLo {
			eb.lo = h
		} else {
			eb.hi = h
		}
	}
	for e, eb := range edges {
		r.Forks[e] = !(eb.hi && !eb.lo)
	}

	r.Sessions = s
	return r, nil
}

// SetJournal registers fn to observe every mutating transition, invoked
// synchronously under the mutated key's shard lock — a key's journal order
// is its apply order, by construction (see emit for the cross-shard
// contract). fn must be fast and must not call back into the registry.
func (s *Sessions) SetJournal(fn func(Rec)) {
	if fn == nil {
		s.journal.Store(nil)
		return
	}
	s.journal.Store(&fn)
}

// getRec, putRec, and delRec are the map accessors that keep a shard's open
// index in step with recs. They take no lock: live callers hold the key's
// shard lock, and Replay owns the registry exclusively before any
// concurrency exists.
func (s *Sessions) getRec(k Key) (*sessionRec, bool) {
	rec, ok := s.shard(k).recs[k]
	return rec, ok
}

func (s *Sessions) putRec(k Key, rec *sessionRec) {
	sh := s.shard(k)
	sh.recs[k] = rec
	if rec.status != statusDone {
		sh.open[k] = rec
	}
}

func (s *Sessions) delRec(k Key) {
	sh := s.shard(k)
	delete(sh.recs, k)
	delete(sh.open, k)
}

// SnapshotState captures every session — tombstones included, they are the
// no-double-grant memory — in first-acquire order. Shards are captured one
// at a time; a mutation that lands in an already-captured shard is simply
// re-described by its WAL record in the fresh segment, which replay
// tolerates (the snapshot-cut idempotency contract).
func (s *Sessions) SnapshotState() []SessionState {
	type row struct {
		seq int64
		st  SessionState
	}
	var rows []row
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, rec := range sh.recs {
			rows = append(rows, row{seq: rec.seq, st: SessionState{
				Diner: k.Diner, ID: k.ID, Status: statusName(rec.status),
				LastSeen: rec.lastSeen, Attached: rec.attached,
			}})
		}
		sh.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	out := make([]SessionState, len(rows))
	for i, r := range rows {
		out[i] = r.st
	}
	return out
}

// ResetBindings is the post-recovery fixup: a crash severed every
// connection, so each surviving session's attach count drops to zero and
// its lease clock restarts at now (the recovered watermark). Without the
// re-stamp, sessions whose lastSeen predates the watermark by more than the
// lease would be mass-expired on the first janitor pass after restart —
// before their clients ever get a chance to reconnect.
func (s *Sessions) ResetBindings(now int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, rec := range sh.open {
			rec.attached = 0
			rec.lastSeen = now
		}
		sh.mu.Unlock()
	}
}
