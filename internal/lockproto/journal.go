package lockproto

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
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

// AppendRec appends the JSON encoding of r — byte for byte what
// json.Marshal produces (FuzzRecEncodeMatchesStdlib) — to dst. The journal
// hook runs on the grant path, under a shard lock: no reflection, and no
// allocation when dst has room.
func AppendRec(dst []byte, r *Rec) []byte {
	dst = append(dst, `{"k":`...)
	dst = appendJSONString(dst, r.K)
	if r.D != 0 {
		dst = append(dst, `,"d":`...)
		dst = strconv.AppendInt(dst, int64(r.D), 10)
	}
	if r.I != "" {
		dst = append(dst, `,"i":`...)
		dst = appendJSONString(dst, r.I)
	}
	if r.T != 0 {
		dst = append(dst, `,"t":`...)
		dst = strconv.AppendInt(dst, r.T, 10)
	}
	if r.P != 0 {
		dst = append(dst, `,"p":`...)
		dst = strconv.AppendInt(dst, int64(r.P), 10)
	}
	if r.Q != 0 {
		dst = append(dst, `,"q":`...)
		dst = strconv.AppendInt(dst, int64(r.Q), 10)
	}
	if r.H {
		dst = append(dst, `,"h":true`...)
	}
	return append(dst, '}')
}

// Encode marshals the record for the WAL.
func (r Rec) Encode() []byte { return AppendRec(nil, &r) }

// SessionState is one session in flight in a snapshot. Snapshots written
// before the done index (payload v1) also carry one "s":"done" row per
// finished session; Replay folds those into the index, nothing writes them.
type SessionState struct {
	Diner    int    `json:"d"`
	ID       string `json:"i"`
	Status   string `json:"s"` // "pending" | "granted"
	LastSeen int64  `json:"t"`
	Attached int    `json:"a,omitempty"`
}

// DoneState is one done-index entry in a snapshot: the finished ids
// Prefix+n for every n in Ranges (inclusive [lo, hi] pairs, ascending), and
// the id Prefix itself if Bare.
type DoneState struct {
	Diner  int         `json:"d"`
	Prefix string      `json:"p"`
	Ranges [][2]uint64 `json:"r,omitempty"`
	Bare   bool        `json:"b,omitempty"`
}

// ForkState is one process's hold bit for one edge in a snapshot.
type ForkState struct {
	P    int  `json:"p"`
	Q    int  `json:"q"`
	Hold bool `json:"h"`
}

// State is a snapshot payload: the full registry at a clock watermark. The
// Sessions slice is in first-acquire order, which Replay preserves so that
// recovered sessions re-enter the dining layer in their original order; Done
// is sorted by (diner, prefix). Its size is sessions in flight plus what
// DoneSize counts, not sessions ever served.
type State struct {
	Watermark int64          `json:"w"`
	Sessions  []SessionState `json:"sessions,omitempty"`
	Done      []DoneState    `json:"done,omitempty"`
	Forks     []ForkState    `json:"forks,omitempty"`
}

// Rows is the snapshot's size in registry rows: sessions, done entries and
// their spans.
func (st State) Rows() int {
	n := len(st.Sessions) + len(st.Done)
	for _, d := range st.Done {
		n += len(d.Ranges)
	}
	return n
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
	if st == statusGranted {
		return "granted"
	}
	return "pending"
}

func parseStatus(s string) (sessionStatus, error) {
	switch s {
	case "pending":
		return statusPending, nil
	case "granted":
		return statusGranted, nil
	}
	return 0, fmt.Errorf("unknown session status %q", s)
}

// RecoveredSession is one unfinished session Replay found, in first-acquire
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
	Live      []RecoveredSession // unfinished sessions, first-acquire order
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

	if snapshot != nil {
		st, err := DecodeState(snapshot)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		r.Watermark = st.Watermark
		for _, ss := range st.Sessions {
			k := Key{Diner: ss.Diner, ID: ss.ID}
			sh := s.shard(k)
			if ss.Status == "done" { // payload v1: one row per finished session
				s.finish(sh, k)
				continue
			}
			status, err := parseStatus(ss.Status)
			if err != nil {
				return nil, fmt.Errorf("snapshot session %d/%s: %w", ss.Diner, ss.ID, err)
			}
			sh.recs[k] = &sessionRec{status: status, attached: ss.Attached, lastSeen: ss.LastSeen, seq: s.nextSeq.Add(1) - 1}
		}
		for _, ds := range st.Done {
			if err := s.loadDone(ds); err != nil {
				return nil, fmt.Errorf("snapshot done entry %d/%s: %w", ds.Diner, ds.Prefix, err)
			}
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
		// Each record replays through the registry's own transition; the
		// registry has no journal yet, so nothing is re-emitted.
		k := Key{Diner: rec.D, ID: rec.I}
		switch rec.K {
		case RecAcquire:
			s.Acquire(k, rec.T)
		case RecGrant:
			if grants[k]++; grants[k] > 1 {
				r.Violations = append(r.Violations,
					fmt.Sprintf("session %d/%s has %d grant records (double grant)", k.Diner, k.ID, grants[k]))
			}
			if sh := s.shard(k); sh.recs[k] == nil && !sh.isDone(k) {
				r.Violations = append(r.Violations,
					fmt.Sprintf("grant record for unknown session %d/%s", k.Diner, k.ID))
			}
			s.Grant(k, rec.T)
		case RecRelease, RecExpire:
			s.Release(k, rec.T)
		case RecAttach:
			s.Attach(k, rec.T)
		case RecDetach:
			s.Detach(k, rec.T)
		case RecAbort:
			s.Abort(k)
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

	for _, ss := range s.capture(false).Sessions {
		r.Live = append(r.Live, RecoveredSession{
			Key: Key{Diner: ss.Diner, ID: ss.ID}, Granted: ss.Status == "granted",
		})
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

// SnapshotState captures the registry — the sessions in flight and the done
// index, which is the no-double-grant memory — as a State whose watermark
// and forks are the caller's to fill in. Shards are captured one at a time,
// each one's sessions and index under one hold of its lock; a mutation that
// lands in an already-captured shard is simply re-described by its WAL record
// in the fresh segment, which replay tolerates (the snapshot-cut idempotency
// contract).
func (s *Sessions) SnapshotState() State { return s.capture(true) }

// capture is SnapshotState; withDone false leaves the index out.
func (s *Sessions) capture(withDone bool) State {
	type row struct {
		seq int64
		st  SessionState
	}
	var rows []row
	var st State
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, rec := range sh.recs {
			rows = append(rows, row{seq: rec.seq, st: SessionState{
				Diner: k.Diner, ID: k.ID, Status: statusName(rec.status),
				LastSeen: rec.lastSeen, Attached: rec.attached,
			}})
		}
		if withDone {
			for dk, ds := range sh.done {
				d := DoneState{Diner: dk.diner, Prefix: dk.prefix, Bare: ds.bare}
				for _, sp := range ds.spans {
					d.Ranges = append(d.Ranges, [2]uint64{sp.lo, sp.hi})
				}
				st.Done = append(st.Done, d)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	for _, r := range rows {
		st.Sessions = append(st.Sessions, r.st)
	}
	sort.Slice(st.Done, func(i, j int) bool {
		a, b := &st.Done[i], &st.Done[j]
		if a.Diner != b.Diner {
			return a.Diner < b.Diner
		}
		return a.Prefix < b.Prefix
	})
	return st
}

// loadDone folds one snapshot done entry into the index. A range no id
// splits into (hi < lo, a counter of more than maxCounterDigits digits) is a
// corrupt snapshot, not a registry state.
func (s *Sessions) loadDone(d DoneState) error {
	ds, delta := s.shard(Key{Diner: d.Diner}).doneSetOf(doneKey{d.Diner, d.Prefix})
	ds.bare = ds.bare || d.Bare
	for _, r := range d.Ranges {
		if r[0] > r[1] || r[1] >= counterLimit {
			return fmt.Errorf("bad range [%d,%d]", r[0], r[1])
		}
		delta += ds.add(span{r[0], r[1]})
	}
	s.doneSize.Add(int64(delta))
	return nil
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
		for _, rec := range sh.recs {
			rec.attached = 0
			rec.lastSeen = now
		}
		sh.mu.Unlock()
	}
}
