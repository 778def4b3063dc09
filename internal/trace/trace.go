// Package trace collects and analyzes run traces. A Log implements
// sim.Tracer; checkers and experiment harnesses reconstruct dining sessions,
// suspicion histories and crash times from the record stream alone, so every
// verified property is a property of an actual run, not of internal state.
package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Well-known record kinds emitted by the protocol modules in this module.
const (
	KindState   = "state"   // dining state change: Inst=table, Note=state name
	KindSuspect = "suspect" // oracle output change: Inst=oracle, Peer=target
	KindTrust   = "trust"   // oracle output change: Inst=oracle, Peer=target
	KindCrash   = "crash"   // process crash (emitted by the kernel)
	KindRecover = "recover" // process restart after a crash (live runtime)
	KindMark    = "mark"    // free-form module annotations
)

// Log is an append-only run trace. The zero value is ready to use.
type Log struct {
	Records []sim.Record
}

// Trace implements sim.Tracer.
func (l *Log) Trace(r sim.Record) { l.Records = append(l.Records, r) }

// Len returns the number of records.
func (l *Log) Len() int { return len(l.Records) }

// Filter returns the records matching every non-zero criterion of want:
// Kind (if non-empty), P (if >= 0), Peer (if >= 0), Inst (if non-empty).
func (l *Log) Filter(want sim.Record) []sim.Record {
	var out []sim.Record
	for _, r := range l.Records {
		if want.Kind != "" && r.Kind != want.Kind {
			continue
		}
		if want.P >= 0 && r.P != want.P {
			continue
		}
		if want.Peer >= 0 && r.Peer != want.Peer {
			continue
		}
		if want.Inst != "" && r.Inst != want.Inst {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Hash returns an order-sensitive FNV-1a digest of the full record stream.
// Two runs of the same (program, topology, fault plan, delay policy, seed)
// must produce equal hashes — the determinism contract the chaos engine's
// replayable repro artifacts depend on. Per record it digests T, Seq, P and
// Peer as little-endian 64-bit words, then Kind, Inst and Note, each followed
// by a zero byte: the value hash/fnv's New64a gives over those bytes, computed
// inline.
func (l *Log) Hash() uint64 {
	h := uint64(fnvOffset64)
	for i := range l.Records {
		r := &l.Records[i]
		h = fnvWord(h, uint64(r.T))
		h = fnvWord(h, uint64(r.Seq))
		h = fnvWord(h, uint64(r.P))
		h = fnvWord(h, uint64(r.Peer))
		h = fnvString(h, r.Kind)
		h = fnvString(h, r.Inst)
		h = fnvString(h, r.Note)
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPow[k] is fnvPrime64^k: FNV-1a digests a zero byte by a bare multiply
// with the prime, so k zero bytes are one multiply by fnvPow[k].
var fnvPow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime64
	}
	return pow
}()

// fnvWord digests v's eight little-endian bytes: byte by byte up to the
// highest non-zero one, then the zero bytes above it in one multiply. Trace
// words are mostly small (ticks, sequence numbers, process ids), so most of
// their bytes are zero.
func fnvWord(h, v uint64) uint64 {
	n := (bits.Len64(v) + 7) / 8
	for range n {
		h = (h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	return h * fnvPow[8-n]
}

// fnvString digests s's bytes and a terminating zero byte.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h * fnvPrime64
}

// CrashTimes returns the first crash time of every process that ever
// crashed, whether or not it later recovered. Liveness checkers use this to
// exempt ever-crashed processes from progress obligations (conservative
// under recovery); safety checkers needing the full down-time structure use
// DeadIntervals instead.
func (l *Log) CrashTimes() map[sim.ProcID]sim.Time {
	out := make(map[sim.ProcID]sim.Time)
	for _, r := range l.Records {
		if r.Kind == KindCrash {
			if _, dup := out[r.P]; !dup {
				out[r.P] = r.T
			}
		}
	}
	return out
}

// DeadIntervals returns, per process, its down-time eras: each [crash,
// recover) pair becomes a closed interval, and a crash never followed by a
// recover yields an open interval (End == sim.Never).
func (l *Log) DeadIntervals() map[sim.ProcID][]Interval {
	open := make(map[sim.ProcID]sim.Time)
	out := make(map[sim.ProcID][]Interval)
	for _, r := range l.Records {
		switch r.Kind {
		case KindCrash:
			if _, isOpen := open[r.P]; !isOpen {
				open[r.P] = r.T
			}
		case KindRecover:
			if s, isOpen := open[r.P]; isOpen {
				delete(open, r.P)
				out[r.P] = append(out[r.P], Interval{Start: s, End: r.T})
			}
		}
	}
	for p, s := range open {
		out[p] = append(out[p], Interval{Start: s, End: sim.Never})
	}
	return out
}

// Interval is a half-open time interval [Start, End). End == sim.Never means
// the interval was still open when the run stopped.
type Interval struct {
	Start, End sim.Time
}

// Closed reports whether the interval ended before the run stopped.
func (iv Interval) Closed() bool { return iv.End != sim.Never }

// Overlaps reports whether two intervals intersect, treating open ends as
// extending to horizon.
func (iv Interval) Overlaps(other Interval, horizon sim.Time) bool {
	aEnd, bEnd := iv.End, other.End
	if aEnd == sim.Never {
		aEnd = horizon
	}
	if bEnd == sim.Never {
		bEnd = horizon
	}
	return iv.Start < bEnd && other.Start < aEnd
}

// SessionKey identifies one diner within one table instance.
type SessionKey struct {
	Inst string
	P    sim.ProcID
}

// Sessions extracts, for every (table instance, diner), its intervals in the
// given dining state (e.g. "eating" or "hungry"), in record order: start
// order for a log in time order, which a recorded run is. A crash ends every
// open session of the crashed process: the dead incarnation is no longer in
// any dining phase, and a restarted one re-announces its state from scratch.
func (l *Log) Sessions(state string) map[SessionKey][]Interval {
	open := make(map[SessionKey]sim.Time)
	out := make(map[SessionKey][]Interval)
	for _, r := range l.Records {
		if r.Kind == KindCrash {
			for k, s := range open {
				if k.P == r.P {
					delete(open, k)
					out[k] = append(out[k], Interval{Start: s, End: r.T})
				}
			}
			continue
		}
		if r.Kind != KindState {
			continue
		}
		k := SessionKey{Inst: r.Inst, P: r.P}
		if r.Note == state {
			if _, isOpen := open[k]; !isOpen {
				open[k] = r.T
			}
			continue
		}
		if s, isOpen := open[k]; isOpen {
			delete(open, k)
			out[k] = append(out[k], Interval{Start: s, End: r.T})
		}
	}
	for k, s := range open {
		out[k] = append(out[k], Interval{Start: s, End: sim.Never})
	}
	return out
}

// SuspicionKey identifies one monitor-target pair of one oracle instance.
type SuspicionKey struct {
	Inst string
	P    sim.ProcID // the monitor
	Peer sim.ProcID // the monitored target
}

// SuspicionChange is one output transition of a failure detector module.
type SuspicionChange struct {
	T       sim.Time
	Suspect bool
}

// Suspicions extracts, for every (oracle instance, monitor, target), the
// time-ordered sequence of output changes.
func (l *Log) Suspicions() map[SuspicionKey][]SuspicionChange {
	out := make(map[SuspicionKey][]SuspicionChange)
	for _, r := range l.Records {
		if r.Kind != KindSuspect && r.Kind != KindTrust {
			continue
		}
		k := SuspicionKey{Inst: r.Inst, P: r.P, Peer: r.Peer}
		out[k] = append(out[k], SuspicionChange{T: r.T, Suspect: r.Kind == KindSuspect})
	}
	return out
}

// Instances returns the sorted set of instance names appearing in records of
// the given kind ("" for all kinds).
func (l *Log) Instances(kind string) []string {
	set := make(map[string]bool)
	for _, r := range l.Records {
		if kind != "" && r.Kind != kind {
			continue
		}
		if r.Inst != "" {
			set[r.Inst] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Timeline renders an ASCII Gantt chart of the given labeled interval rows
// between t0 and t1, with the given number of columns. It reproduces the
// shape of the paper's Figure 1 (witness/subject eating sessions and the
// subjects' overlap hand-off) from a real run.
func Timeline(rows []TimelineRow, t0, t1 sim.Time, cols int) string {
	if cols < 10 {
		cols = 10
	}
	if t1 <= t0 {
		t1 = t0 + 1
	}
	span := float64(t1 - t0)
	var b strings.Builder
	width := 0
	for _, r := range rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	for _, r := range rows {
		cells := make([]byte, cols)
		for i := range cells {
			cells[i] = '.'
		}
		for _, iv := range r.Intervals {
			end := iv.End
			if end == sim.Never {
				end = t1
			}
			if end < t0 || iv.Start > t1 {
				continue
			}
			lo := int(float64(max(iv.Start, t0)-t0) / span * float64(cols))
			hi := int(float64(min(end, t1)-t0) / span * float64(cols))
			if hi >= cols {
				hi = cols - 1
			}
			for i := lo; i <= hi && i >= 0; i++ {
				cells[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", width, r.Label, string(cells))
	}
	fmt.Fprintf(&b, "%-*s  t=%d%*s t=%d\n", width, "", t0, cols-len(fmt.Sprint(t0))-3, "", t1)
	return b.String()
}

// TimelineRow is one labeled row of a Timeline chart.
type TimelineRow struct {
	Label     string
	Intervals []Interval
}
