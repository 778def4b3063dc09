package checker

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

func rec(t sim.Time, p sim.ProcID, kind, inst, note string, peer sim.ProcID) sim.Record {
	return sim.Record{T: t, P: p, Kind: kind, Inst: inst, Note: note, Peer: peer}
}

func eatAt(l *trace.Log, inst string, p sim.ProcID, from, to sim.Time) {
	l.Trace(rec(from, p, trace.KindState, inst, "eating", -1))
	if to != sim.Never {
		l.Trace(rec(to, p, trace.KindState, inst, "exiting", -1))
	}
}

func TestExclusionDetectsOverlap(t *testing.T) {
	l := &trace.Log{}
	g := graph.Pair(0, 1)
	eatAt(l, "t", 0, 10, 30)
	eatAt(l, "t", 1, 20, 40) // overlaps [20,30)
	rep := Exclusion(l, g, "t", 1000)
	if len(rep.Violations) != 1 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Violations[0].T != 20 || rep.LastViolation != 30 {
		t.Fatalf("overlap window wrong: %+v", rep)
	}
}

func TestExclusionIgnoresNonNeighbors(t *testing.T) {
	l := &trace.Log{}
	g := graph.Path(3) // 0-1-2: 0 and 2 are not neighbors
	eatAt(l, "t", 0, 10, 30)
	eatAt(l, "t", 2, 15, 25)
	if rep := Exclusion(l, g, "t", 1000); len(rep.Violations) != 0 {
		t.Fatalf("non-neighbors flagged: %v", rep.Violations)
	}
}

func TestExclusionTrimsCrashedEater(t *testing.T) {
	l := &trace.Log{}
	g := graph.Pair(0, 1)
	eatAt(l, "t", 0, 10, sim.Never) // 0 eats "forever" but crashes at 15
	l.Trace(rec(15, 0, trace.KindCrash, "", "", -1))
	eatAt(l, "t", 1, 20, 40) // only overlaps the dead period
	if rep := Exclusion(l, g, "t", 1000); len(rep.Violations) != 0 {
		t.Fatalf("dead eater counted as live: %v", rep.Violations)
	}
	// But an overlap before the crash still counts.
	l2 := &trace.Log{}
	eatAt(l2, "t", 0, 10, sim.Never)
	l2.Trace(rec(25, 0, trace.KindCrash, "", "", -1))
	eatAt(l2, "t", 1, 20, 40) // [20,25) live overlap
	if rep := Exclusion(l2, g, "t", 1000); len(rep.Violations) != 1 {
		t.Fatalf("live-window overlap missed: %v", rep.Violations)
	}
}

func TestEventualVsPerpetual(t *testing.T) {
	l := &trace.Log{}
	g := graph.Pair(0, 1)
	eatAt(l, "t", 0, 10, 30)
	eatAt(l, "t", 1, 20, 40)
	if _, err := EventualWeakExclusion(l, g, "t", 500, 1000); err != nil {
		t.Fatalf("early violation should be tolerated by ◇WX: %v", err)
	}
	if _, err := EventualWeakExclusion(l, g, "t", 15, 1000); err == nil {
		t.Fatal("violation after convergence bound not flagged")
	}
	if _, err := PerpetualWeakExclusion(l, g, "t", 1000); err == nil {
		t.Fatal("ℙWX must reject any violation")
	}
}

func TestWaitFreedom(t *testing.T) {
	l := &trace.Log{}
	// 0: hungry then eats — fine. 1: hungry forever — starved. 2: hungry
	// late — within grace. 3: hungry forever but crashed — not owed.
	l.Trace(rec(10, 0, trace.KindState, "t", "hungry", -1))
	l.Trace(rec(20, 0, trace.KindState, "t", "eating", -1))
	l.Trace(rec(30, 1, trace.KindState, "t", "hungry", -1))
	l.Trace(rec(960, 2, trace.KindState, "t", "hungry", -1))
	l.Trace(rec(40, 3, trace.KindState, "t", "hungry", -1))
	l.Trace(rec(50, 3, trace.KindCrash, "", "", -1))
	starved := WaitFreedom(l, "t", 900, 1000)
	if len(starved) != 1 || starved[0].P != 1 {
		t.Fatalf("starvation report: %v", starved)
	}
}

func TestKFairness(t *testing.T) {
	l := &trace.Log{}
	g := graph.Pair(0, 1)
	// 1 hungry the whole time; 0 eats three closed sessions inside it.
	l.Trace(rec(10, 1, trace.KindState, "t", "hungry", -1))
	eatAt(l, "t", 0, 20, 30)
	eatAt(l, "t", 0, 40, 50)
	eatAt(l, "t", 0, 60, 70)
	over := KFairness(l, g, "t", 2, 0, 1000)
	if len(over) != 1 || over[0].Count != 3 || over[0].Eater != 0 || over[0].Victim != 1 {
		t.Fatalf("overtakes: %v", over)
	}
	// With k=3 nothing is flagged.
	if over := KFairness(l, g, "t", 3, 0, 1000); len(over) != 0 {
		t.Fatalf("k=3 flagged: %v", over)
	}
	// Only sessions after `from` count: suffix semantics.
	if over := KFairness(l, g, "t", 2, 45, 1000); len(over) != 0 {
		t.Fatalf("suffix filter broken: %v", over)
	}
}

func TestKFairnessIgnoresCrashedVictim(t *testing.T) {
	l := &trace.Log{}
	g := graph.Pair(0, 1)
	l.Trace(rec(10, 1, trace.KindState, "t", "hungry", -1))
	l.Trace(rec(15, 1, trace.KindCrash, "", "", -1))
	eatAt(l, "t", 0, 20, 30)
	eatAt(l, "t", 0, 40, 50)
	eatAt(l, "t", 0, 60, 70)
	if over := KFairness(l, g, "t", 2, 0, 1000); len(over) != 0 {
		t.Fatalf("crashed victim counted: %v", over)
	}
}

func TestStrongCompletenessChecker(t *testing.T) {
	l := &trace.Log{}
	l.Trace(rec(100, 1, trace.KindCrash, "", "", -1))
	// Monitor 0 suspects 1 at 150 and holds: pass.
	l.Trace(rec(150, 0, trace.KindSuspect, "o", "", 1))
	if _, err := StrongCompleteness(l, "o", [][2]sim.ProcID{{0, 1}}, false, 500); err != nil {
		t.Fatal(err)
	}
	// A trust after the stability bound: fail.
	l.Trace(rec(600, 0, trace.KindTrust, "o", "", 1))
	l.Trace(rec(700, 0, trace.KindSuspect, "o", "", 1))
	if _, err := StrongCompleteness(l, "o", [][2]sim.ProcID{{0, 1}}, false, 500); err == nil {
		t.Fatal("late trust of crashed target not flagged")
	}
}

func TestEventualStrongAccuracyChecker(t *testing.T) {
	l := &trace.Log{}
	l.Trace(rec(50, 0, trace.KindSuspect, "o", "", 1))
	l.Trace(rec(80, 0, trace.KindTrust, "o", "", 1))
	if rep, err := EventualStrongAccuracy(l, "o", [][2]sim.ProcID{{0, 1}}, true, 100); err != nil {
		t.Fatal(err)
	} else if rep.Mistakes != 2 { // initial suspicion + one false suspicion
		t.Fatalf("mistakes=%d want 2", rep.Mistakes)
	}
	l.Trace(rec(900, 0, trace.KindSuspect, "o", "", 1))
	if _, err := EventualStrongAccuracy(l, "o", [][2]sim.ProcID{{0, 1}}, true, 100); err == nil {
		t.Fatal("late suspicion accepted")
	}
}

func TestTrustingAccuracyChecker(t *testing.T) {
	// Withdrawing trust from a live target is the T violation.
	l := &trace.Log{}
	l.Trace(rec(50, 0, trace.KindTrust, "o", "", 1))
	l.Trace(rec(80, 0, trace.KindSuspect, "o", "", 1))
	l.Trace(rec(90, 0, trace.KindTrust, "o", "", 1))
	if _, err := TrustingAccuracy(l, "o", [][2]sim.ProcID{{0, 1}}, true, 100); err == nil {
		t.Fatal("trust withdrawal from live target accepted")
	}
	// Withdrawal after the target's crash is fine.
	l2 := &trace.Log{}
	l2.Trace(rec(50, 0, trace.KindTrust, "o", "", 1))
	l2.Trace(rec(70, 1, trace.KindCrash, "", "", -1))
	l2.Trace(rec(80, 0, trace.KindSuspect, "o", "", 1))
	if _, err := TrustingAccuracy(l2, "o", [][2]sim.ProcID{{0, 1}}, true, 100); err != nil {
		t.Fatal(err)
	}
	// A crash in the withdrawal's own tick excuses it, even recorded after
	// it: the rule compares times, not arrival order.
	same := &trace.Log{}
	same.Trace(rec(50, 0, trace.KindTrust, "o", "", 1))
	same.Trace(rec(80, 0, trace.KindSuspect, "o", "", 1))
	same.Trace(rec(80, 1, trace.KindCrash, "", "", -1))
	if _, err := TrustingAccuracy(same, "o", [][2]sim.ProcID{{0, 1}}, true, 100); err != nil {
		t.Fatal(err)
	}
	// One tick later, it does not.
	late := &trace.Log{}
	late.Trace(rec(50, 0, trace.KindTrust, "o", "", 1))
	late.Trace(rec(80, 0, trace.KindSuspect, "o", "", 1))
	late.Trace(rec(81, 1, trace.KindCrash, "", "", -1))
	if _, err := TrustingAccuracy(late, "o", [][2]sim.ProcID{{0, 1}}, true, 100); err == nil {
		t.Fatal("trust withdrawn a tick before the crash accepted")
	}
	// Never trusting a correct target is a violation of axiom (a).
	l3 := &trace.Log{}
	l3.Trace(rec(10, 0, trace.KindSuspect, "o", "", 1))
	if _, err := TrustingAccuracy(l3, "o", [][2]sim.ProcID{{0, 1}}, true, 100); err == nil {
		t.Fatal("permanent distrust of correct target accepted")
	}
}

func TestDetectionLatency(t *testing.T) {
	l := &trace.Log{}
	l.Trace(rec(100, 1, trace.KindCrash, "", "", -1))
	l.Trace(rec(160, 0, trace.KindSuspect, "o", "", 1))
	rep, err := StrongCompleteness(l, "o", [][2]sim.ProcID{{0, 1}}, false, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectionLatency[1] != 60 {
		t.Fatalf("latency=%d want 60", rep.DetectionLatency[1])
	}
}

func TestMistakeCount(t *testing.T) {
	l := &trace.Log{}
	l.Trace(rec(10, 0, trace.KindSuspect, "o", "", 1))
	l.Trace(rec(20, 0, trace.KindTrust, "o", "", 1))
	l.Trace(rec(30, 0, trace.KindSuspect, "o", "", 1))
	if n := MistakeCount(l, "o", 0, 1, true); n != 3 {
		t.Fatalf("count=%d want 3", n)
	}
	if n := MistakeCount(l, "o", 0, 1, false); n != 2 {
		t.Fatalf("count=%d want 2", n)
	}
}

func TestResponseTimes(t *testing.T) {
	l := &trace.Log{}
	// Three served hunger sessions with latencies 10, 20, 30; one open.
	for i, lat := range []sim.Time{10, 20, 30} {
		start := sim.Time(100 * (i + 1))
		l.Trace(rec(start, sim.ProcID(i), trace.KindState, "t", "hungry", -1))
		l.Trace(rec(start+lat, sim.ProcID(i), trace.KindState, "t", "eating", -1))
	}
	l.Trace(rec(900, 3, trace.KindState, "t", "hungry", -1))
	st := ResponseTimes(l, "t", 0)
	if st.Served != 3 || st.Min != 10 || st.Max != 30 || st.Mean != 20 {
		t.Fatalf("stats: %+v", st)
	}
	// Suffix filter: only the last session counts.
	st = ResponseTimes(l, "t", 310)
	if st.Served != 1 || st.Min != 30 {
		t.Fatalf("suffix stats: %+v", st)
	}
	// Empty result is well-formed.
	if st := ResponseTimes(l, "other", 0); st.Served != 0 {
		t.Fatalf("phantom stats: %+v", st)
	}
}
