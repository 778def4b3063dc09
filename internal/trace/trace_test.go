package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func rec(t sim.Time, p sim.ProcID, kind, inst, note string, peer sim.ProcID) sim.Record {
	return sim.Record{T: t, P: p, Kind: kind, Inst: inst, Note: note, Peer: peer}
}

func TestSessionsBasic(t *testing.T) {
	l := &Log{}
	l.Trace(rec(10, 1, KindState, "tbl", "hungry", -1))
	l.Trace(rec(20, 1, KindState, "tbl", "eating", -1))
	l.Trace(rec(30, 1, KindState, "tbl", "exiting", -1))
	l.Trace(rec(35, 1, KindState, "tbl", "thinking", -1))
	l.Trace(rec(50, 1, KindState, "tbl", "eating", -1)) // reopened, never closed

	eat := l.Sessions("eating")
	ivs := eat[SessionKey{Inst: "tbl", P: 1}]
	if len(ivs) != 2 {
		t.Fatalf("got %d eating sessions, want 2", len(ivs))
	}
	if ivs[0].Start != 20 || ivs[0].End != 30 {
		t.Fatalf("first session %v", ivs[0])
	}
	if ivs[1].Start != 50 || ivs[1].Closed() {
		t.Fatalf("second session should be open: %v", ivs[1])
	}

	hungry := l.Sessions("hungry")
	hiv := hungry[SessionKey{Inst: "tbl", P: 1}]
	if len(hiv) != 1 || hiv[0].Start != 10 || hiv[0].End != 20 {
		t.Fatalf("hungry sessions: %v", hiv)
	}
}

func TestSessionsSeparateInstances(t *testing.T) {
	l := &Log{}
	l.Trace(rec(10, 1, KindState, "a", "eating", -1))
	l.Trace(rec(20, 1, KindState, "b", "eating", -1))
	l.Trace(rec(30, 1, KindState, "a", "exiting", -1))
	eat := l.Sessions("eating")
	if len(eat[SessionKey{"a", 1}]) != 1 || len(eat[SessionKey{"b", 1}]) != 1 {
		t.Fatalf("instances mixed up: %v", eat)
	}
	if eat[SessionKey{"b", 1}][0].Closed() {
		t.Fatal("instance b session should still be open")
	}
}

func TestSuspicions(t *testing.T) {
	l := &Log{}
	l.Trace(rec(5, 0, KindSuspect, "xp", "", 1))
	l.Trace(rec(9, 0, KindTrust, "xp", "", 1))
	l.Trace(rec(12, 0, KindSuspect, "other", "", 1))
	s := l.Suspicions()
	ch := s[SuspicionKey{Inst: "xp", P: 0, Peer: 1}]
	if len(ch) != 2 || !ch[0].Suspect || ch[1].Suspect {
		t.Fatalf("changes: %v", ch)
	}
	if len(s[SuspicionKey{Inst: "other", P: 0, Peer: 1}]) != 1 {
		t.Fatal("other instance missing")
	}
}

func TestCrashTimesFirstWins(t *testing.T) {
	l := &Log{}
	l.Trace(rec(100, 2, KindCrash, "", "", -1))
	l.Trace(rec(200, 2, KindCrash, "", "", -1)) // duplicate must not override
	ct := l.CrashTimes()
	if ct[2] != 100 {
		t.Fatalf("crash time %d, want 100", ct[2])
	}
}

func TestOverlaps(t *testing.T) {
	h := sim.Time(1000)
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Interval{0, 10}, Interval{10, 20}, false}, // touching half-open
		{Interval{0, 10}, Interval{9, 20}, true},
		{Interval{0, sim.Never}, Interval{999, sim.Never}, true},
		{Interval{5, 6}, Interval{7, 8}, false},
		{Interval{7, 8}, Interval{5, 6}, false},
		{Interval{0, sim.Never}, Interval{0, 1}, true},
	}
	for i, c := range cases {
		if got := c.a.Overlaps(c.b, h); got != c.want {
			t.Errorf("case %d: %v vs %v = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a, h); got != c.want {
			t.Errorf("case %d: overlap not symmetric", i)
		}
	}
}

// TestOverlapsSymmetryProperty: overlap is symmetric for arbitrary
// intervals.
func TestOverlapsSymmetryProperty(t *testing.T) {
	prop := func(s1, e1, s2, e2 int16) bool {
		a := Interval{Start: sim.Time(s1), End: sim.Time(e1)}
		b := Interval{Start: sim.Time(s2), End: sim.Time(e2)}
		return a.Overlaps(b, 1<<14) == b.Overlaps(a, 1<<14)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFilter(t *testing.T) {
	l := &Log{}
	l.Trace(rec(1, 0, "a", "i1", "", -1))
	l.Trace(rec(2, 1, "a", "i2", "", -1))
	l.Trace(rec(3, 0, "b", "i1", "", -1))
	if n := len(l.Filter(sim.Record{Kind: "a", P: -1, Peer: -1})); n != 2 {
		t.Fatalf("kind filter: %d", n)
	}
	if n := len(l.Filter(sim.Record{Kind: "", P: 0, Peer: -1})); n != 2 {
		t.Fatalf("proc filter: %d", n)
	}
	if n := len(l.Filter(sim.Record{Kind: "a", P: 0, Peer: -1, Inst: "i1"})); n != 1 {
		t.Fatalf("combined filter: %d", n)
	}
}

func TestInstances(t *testing.T) {
	l := &Log{}
	l.Trace(rec(1, 0, KindState, "b", "eating", -1))
	l.Trace(rec(2, 0, KindState, "a", "eating", -1))
	l.Trace(rec(3, 0, KindSuspect, "xp", "", 1))
	got := l.Instances(KindState)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("instances: %v", got)
	}
	if len(l.Instances("")) != 3 {
		t.Fatalf("all instances: %v", l.Instances(""))
	}
}

func TestTimelineRendersBars(t *testing.T) {
	rows := []TimelineRow{
		{Label: "w0", Intervals: []Interval{{Start: 0, End: 50}}},
		{Label: "s0", Intervals: []Interval{{Start: 50, End: sim.Never}}},
	}
	out := Timeline(rows, 0, 100, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline lines: %d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "#") || !strings.Contains(lines[1], "#") {
		t.Fatalf("missing bars:\n%s", out)
	}
	// w0's bar must be in the left half, s0's in the right half.
	if strings.Index(lines[0], "#") > strings.Index(lines[1], "#") {
		t.Fatalf("bars misplaced:\n%s", out)
	}
}

// hashRef is Log.Hash written against hash/fnv: the definition the inline
// digest must reproduce bit for bit.
func hashRef(l *Log) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, r := range l.Records {
		word(int64(r.T))
		word(r.Seq)
		word(int64(r.P))
		word(int64(r.Peer))
		for _, s := range []string{r.Kind, r.Inst, r.Note} {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// TestHashMatchesFNV: the inline digest equals hash/fnv's FNV-1a over the
// same bytes — on the empty log, on negative and extreme integers, and on
// random records whose strings are empty, ASCII, non-ASCII or not UTF-8 at
// all.
func TestHashMatchesFNV(t *testing.T) {
	strs := []string{"", "state", "eating", "dine", "hb", "ß", "日本語", "\x00", "\xff\xfe", "a\x00b", "mark regenerate epoch=3.1"}
	ints := []int64{0, 1, -1, 255, 256, 1 << 40, -1 << 63, 1<<63 - 1}
	// 2^(8k)-1 and 2^(8k): a word with exactly k and k+1 significant bytes,
	// so every length of the digest's zero-byte skip is pinned.
	for k := 0; k < 8; k++ {
		ints = append(ints, int64(uint64(1)<<(8*k)-1), int64(uint64(1)<<(8*k)))
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() int64 {
		if rng.Intn(2) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Int63() - rng.Int63()
	}
	for n := 0; n < 200; n++ {
		l := &Log{}
		for i := 0; i < n%17; i++ {
			l.Trace(sim.Record{
				T: sim.Time(pick()), Seq: pick(), P: sim.ProcID(pick()), Peer: sim.ProcID(pick()),
				Kind: strs[rng.Intn(len(strs))], Inst: strs[rng.Intn(len(strs))], Note: strs[rng.Intn(len(strs))],
			})
		}
		if got, want := l.Hash(), hashRef(l); got != want {
			t.Fatalf("log %d (%d records): Hash %016x, hash/fnv %016x", n, l.Len(), got, want)
		}
	}
}
