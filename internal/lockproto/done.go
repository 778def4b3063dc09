package lockproto

import (
	"sort"
	"strings"
)

// This file is the registry's memory of finished sessions. A finished
// session must answer "done" to a frame replayed arbitrarily late, so it can
// never be forgotten — but it need not cost a record each. Every client this
// repository has names its sessions prefix + decimal counter and finishes
// them in order, so what one client leaves behind on one diner is one integer
// range. The index stores exactly that: per (diner, prefix), a sorted list of
// disjoint, non-adjacent counter spans.
//
// An id splits into prefix + counter bijectively (splitID): the set of
// (diner, prefix, n) triples is the set of done keys, nothing more and
// nothing less, and spans are a lossless encoding of it — a span only ever
// covers values that were each added. An id with no counter is a bare entry
// keyed by the whole id: one map entry per session, which is what every id
// used to cost.

// maxCounterDigits bounds the counter so it always fits a uint64 (and an
// int64, for every JSON reader).
const (
	maxCounterDigits        = 18
	counterLimit     uint64 = 1e18 // 10^maxCounterDigits
)

// splitID cuts id into a prefix and a canonical decimal counter: the
// maximal trailing digit run, clipped to its last maxCounterDigits digits,
// minus leading zeros ("a007" is prefix "a00", counter 7; "a000" is prefix
// "a00", counter 0). prefix + FormatUint(n) == id always holds, so distinct
// ids never share a (prefix, n). ok is false for an id that does not end in
// a digit.
func splitID(id string) (prefix string, n uint64, ok bool) {
	i := len(id)
	for i > 0 && len(id)-i < maxCounterDigits && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) {
		return id, 0, false
	}
	for i < len(id)-1 && id[i] == '0' {
		i++
	}
	for j := i; j < len(id); j++ {
		n = n*10 + uint64(id[j]-'0')
	}
	return id[:i], n, true
}

// doneKey names one client's id family on one diner.
type doneKey struct {
	diner  int
	prefix string
}

// span is the inclusive counter range [lo, hi].
type span struct{ lo, hi uint64 }

// doneSet is the finished ids of one doneKey: the bare id itself (no
// counter) and the counters, as sorted, disjoint, non-adjacent spans.
type doneSet struct {
	bare  bool
	spans []span
}

// has reports whether counter n is in the set.
func (ds *doneSet) has(n uint64) bool {
	i := sort.Search(len(ds.spans), func(i int) bool { return ds.spans[i].hi >= n })
	return i < len(ds.spans) && ds.spans[i].lo <= n
}

// add inserts the counters of s and returns the change in span count: +1 a
// new span, 0 an extension or a repeat, -k when s bridges k+1 spans.
func (ds *doneSet) add(s span) int {
	sp := ds.spans
	// In-order completion: s continues the last span.
	if last := len(sp) - 1; last >= 0 && sp[last].hi+1 == s.lo {
		sp[last].hi = s.hi
		return 0
	}
	// sp[i:j] are the spans s overlaps or touches.
	i := sort.Search(len(sp), func(i int) bool { return sp[i].hi+1 >= s.lo })
	j := i
	for j < len(sp) && sp[j].lo <= s.hi+1 {
		j++
	}
	if i == j {
		sp = append(sp, span{})
		copy(sp[i+1:], sp[i:])
		sp[i] = s
		ds.spans = sp
		return 1
	}
	if sp[i].lo < s.lo {
		s.lo = sp[i].lo
	}
	if sp[j-1].hi > s.hi {
		s.hi = sp[j-1].hi
	}
	sp[i] = s
	ds.spans = append(sp[:i+1], sp[j:]...)
	return i + 1 - j
}

// isDone reports whether k finished. Callers hold the shard lock.
func (sh *sesShard) isDone(k Key) bool {
	prefix, n, counted := splitID(k.ID)
	ds := sh.done[doneKey{k.Diner, prefix}]
	if ds == nil {
		return false
	}
	if !counted {
		return ds.bare
	}
	return ds.has(n)
}

// doneSetOf returns dk's set, starting an empty one (delta 1) if there is
// none. The prefix is cloned when it starts an entry: it is a substring of a
// request's id, which must not be pinned for the life of the server.
func (sh *sesShard) doneSetOf(dk doneKey) (ds *doneSet, delta int) {
	if ds = sh.done[dk]; ds == nil {
		dk.prefix = strings.Clone(dk.prefix)
		ds, delta = &doneSet{}, 1
		sh.done[dk] = ds
	}
	return ds, delta
}

// markDone adds k to the index and returns the change in index size
// (entries + spans).
func (sh *sesShard) markDone(k Key) int {
	prefix, n, counted := splitID(k.ID)
	ds, delta := sh.doneSetOf(doneKey{k.Diner, prefix})
	if !counted {
		ds.bare = true
		return delta
	}
	return delta + ds.add(span{n, n})
}
