package lockproto

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// doneModel drives one shard's done index beside the structure it replaces,
// a plain set of keys, and fails the test the moment they disagree.
type doneModel struct {
	t    *testing.T
	sh   sesShard
	want map[Key]bool
	size int // entries + spans, as markDone's deltas report it
}

func newDoneModel(t *testing.T) *doneModel {
	return &doneModel{t: t, sh: sesShard{done: make(map[doneKey]*doneSet)}, want: make(map[Key]bool)}
}

// lookup checks the split of k's id and that index and set agree on k.
func (m *doneModel) lookup(k Key) {
	m.t.Helper()
	prefix, n, counted := splitID(k.ID)
	switch {
	case !counted && (prefix != k.ID || n != 0):
		m.t.Fatalf("splitID(%q) = (%q, %d, false), want the whole id", k.ID, prefix, n)
	case counted && prefix+strconv.FormatUint(n, 10) != k.ID:
		m.t.Fatalf("splitID(%q) = (%q, %d): does not join back to the id", k.ID, prefix, n)
	case counted && n >= counterLimit:
		m.t.Fatalf("splitID(%q): counter %d has more than %d digits", k.ID, n, maxCounterDigits)
	}
	if got := m.sh.isDone(k); got != m.want[k] {
		m.t.Fatalf("isDone(%+v) = %v, the set says %v", k, got, m.want[k])
	}
}

func (m *doneModel) add(k Key) {
	m.t.Helper()
	m.lookup(k)
	m.size += m.sh.markDone(k)
	m.want[k] = true
	m.lookup(k)
}

// audit checks every entry's spans are sorted, disjoint and non-adjacent,
// that the size deltas added up, and that the index holds exactly the set:
// every added key is found, and the spans cover no counter beyond them.
func (m *doneModel) audit() {
	m.t.Helper()
	size, members := 0, 0
	for dk, ds := range m.sh.done {
		size += 1 + len(ds.spans)
		if ds.bare {
			members++
		}
		for i, sp := range ds.spans {
			if sp.lo > sp.hi {
				m.t.Fatalf("%+v: span %d is [%d,%d]", dk, i, sp.lo, sp.hi)
			}
			if i > 0 && ds.spans[i-1].hi+1 >= sp.lo {
				m.t.Fatalf("%+v: spans %v and %v overlap or touch", dk, ds.spans[i-1], sp)
			}
			members += int(sp.hi - sp.lo + 1)
		}
	}
	if size != m.size {
		m.t.Fatalf("index holds %d entries+spans, markDone reported %d", size, m.size)
	}
	if members != len(m.want) {
		m.t.Fatalf("index covers %d ids, %d were added", members, len(m.want))
	}
	for k := range m.want {
		m.lookup(k)
	}
}

// hurtfulIDs are ids chosen against the split: no counter, nothing but a
// counter, leading zeros, digit runs at and beyond the counter's width,
// values past uint64, prefixes that end in digits, near misses of each other.
var hurtfulIDs = []string{
	"", "a", "0", "00", "000", "7", "07", "007", "a0", "a00", "a000", "a007", "a7", "a07", "a70", "a700",
	"a1", "a10", "a100", "a-1", "a-10", "a1-1", "a1-01", "x9", "x10", "x11", "x09", "x010",
	"999999999999999999", "1000000000000000000", "a999999999999999999", "a1000000000000000000",
	"18446744073709551615", "18446744073709551616", "a18446744073709551616",
	"a0000000000000000000000000007", "a1234567890123456789012345", "a100000000000000000", "a099999999999999999",
	"c0-d2-1", "c0-d2-2", "c0-d2-3", "c0-d2-", "c0-d2", "é1", "é", "a\x001", "a 1", "1a", "1a1",
}

// TestDoneIndexMatchesMap holds the done index to a plain set over the
// hurtful ids — on two diners that share every prefix — and over one
// client's counter run inserted ascending, descending, odds then evens and at
// random: whatever the order, a finished run is one span.
func TestDoneIndexMatchesMap(t *testing.T) {
	m := newDoneModel(t)
	for _, id := range hurtfulIDs {
		m.lookup(Key{Diner: 0, ID: id})
	}
	for i, id := range hurtfulIDs {
		m.add(Key{Diner: i % 2, ID: id})
		m.audit()
	}
	for _, id := range hurtfulIDs {
		m.add(Key{Diner: 0, ID: id})
		m.add(Key{Diner: 1, ID: id}) // repeats included: adding twice changes nothing
	}
	m.audit()

	const n = 1000
	orders := map[string]func() []int{
		"ascending": func() []int {
			o := make([]int, n)
			for i := range o {
				o[i] = i
			}
			return o
		},
		"descending": func() []int {
			o := make([]int, n)
			for i := range o {
				o[i] = n - 1 - i
			}
			return o
		},
		"odd-then-even": func() []int {
			var o []int
			for i := 1; i < n; i += 2 {
				o = append(o, i)
			}
			for i := 0; i < n; i += 2 {
				o = append(o, i)
			}
			return o
		},
		"random": func() []int { return rand.New(rand.NewSource(1)).Perm(n) },
	}
	for name, order := range orders {
		m := newDoneModel(t)
		for step, i := range order() {
			for d := 0; d < 2; d++ {
				m.add(Key{Diner: d, ID: "c7-d" + strconv.Itoa(d) + "-" + strconv.Itoa(i)})
			}
			if step%97 == 0 {
				m.audit()
			}
		}
		m.audit()
		m.lookup(Key{Diner: 0, ID: "c7-d0-" + strconv.Itoa(n)})
		m.lookup(Key{Diner: 1, ID: "c7-d0-5"}) // the other diner's prefix
		if m.size != 4 {
			t.Errorf("%s: %d finished sessions per diner cost %d entries+spans, want 2 entries of one span", name, n, m.size)
		}
	}
}

// FuzzDoneIndex feeds the model comma-separated tokens: the first byte of a
// token picks the diner (bit 0) and add or lookup (bit 1), the rest is the id.
func FuzzDoneIndex(f *testing.F) {
	f.Add("2a1,2a3,2a2,0a2,1a2,3a2")
	f.Add("2a007,2a000,2a7,0a07,2007,27,2,0")
	f.Add("2" + strings.Join(hurtfulIDs, ",2"))
	f.Add("3" + strings.Join(hurtfulIDs, ",3"))
	f.Add("2x5,2x3,2x1,2x2,2x4,2x0,2x18446744073709551615,2x999999999999999999,2x1000000000000000000")
	f.Fuzz(func(t *testing.T, in string) {
		m := newDoneModel(t)
		for _, tok := range strings.Split(in, ",") {
			if tok == "" {
				continue
			}
			k := Key{Diner: int(tok[0] & 1), ID: tok[1:]}
			if tok[0]&2 != 0 {
				m.add(k)
			} else {
				m.lookup(k)
			}
		}
		m.audit()
	})
}
