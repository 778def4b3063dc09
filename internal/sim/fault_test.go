package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFaultPlanShapes(t *testing.T) {
	if n := len(NoFaults().Crashes); n != 0 {
		t.Fatalf("NoFaults has %d crashes", n)
	}
	ab := AllButOne(4, 2, 100, 10)
	if len(ab.Crashes) != 3 {
		t.Fatalf("AllButOne: %v", ab)
	}
	for _, c := range ab.Crashes {
		if c.P == 2 {
			t.Fatal("AllButOne crashed the survivor")
		}
	}
	correct := ab.Correct(4)
	if len(correct) != 1 || correct[0] != 2 {
		t.Fatalf("Correct: %v", correct)
	}
}

// TestMinorityCrashesProperty: the generated plan always crashes a strict
// minority, within the window, without duplicates.
func TestMinorityCrashesProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 3 // 3..10
		rng := rand.New(rand.NewSource(seed))
		fp := MinorityCrashes(n, 100, 500, rng)
		if 2*len(fp.Crashes) >= n {
			return false // must be a strict minority
		}
		seen := map[ProcID]bool{}
		for _, c := range fp.Crashes {
			if c.At < 100 || c.At > 600 || seen[c.P] || int(c.P) >= n {
				return false
			}
			seen[c.P] = true
		}
		return len(fp.Crashes) >= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultPlanApply(t *testing.T) {
	k := NewKernel(3)
	fp := FaultPlan{Name: "two", Crashes: []Crash{{P: 0, At: 50}, {P: 2, At: 150}}}
	if err := fp.Apply(k); err != nil {
		t.Fatal(err)
	}
	k.Run(1000)
	if !k.Crashed(0) || !k.Crashed(2) || k.Crashed(1) {
		t.Fatal("plan not applied")
	}
	if k.CrashTime(0) != 50 || k.CrashTime(2) != 150 {
		t.Fatalf("crash times: %d %d", k.CrashTime(0), k.CrashTime(2))
	}
}

// TestFaultPlanApplyRejectsMalformed: negative times, duplicate crashes and
// out-of-range processes are errors, and nothing is scheduled.
func TestFaultPlanApplyRejectsMalformed(t *testing.T) {
	cases := map[string]FaultPlan{
		"negative time": {Name: "bad", Crashes: []Crash{{P: 0, At: -5}}},
		"duplicate":     {Name: "bad", Crashes: []Crash{{P: 1, At: 10}, {P: 1, At: 20}}},
		"out of range":  {Name: "bad", Crashes: []Crash{{P: 7, At: 10}}},
		"negative proc": {Name: "bad", Crashes: []Crash{{P: -1, At: 10}}},
	}
	for name, fp := range cases {
		k := NewKernel(3)
		if err := fp.Apply(k); err == nil {
			t.Errorf("%s: plan %v accepted", name, fp)
		}
		k.Run(1000)
		for p := 0; p < 3; p++ {
			if k.Crashed(ProcID(p)) {
				t.Errorf("%s: crash of %d was scheduled despite the error", name, p)
			}
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.AddAction(0, "inc", func() bool { return n < 100 }, func() { n++ })
	at, ok := k.RunUntil(100000, func() bool { return n >= 10 })
	if !ok || n != 10 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v", n, ok)
	}
	if at <= 0 {
		t.Fatal("no time elapsed")
	}
	// Condition never met: runs to quiescence (guard disables at 100).
	_, ok = k.RunUntil(100000, func() bool { return n > 1000 })
	if ok || n != 100 {
		t.Fatalf("RunUntil: n=%d ok=%v, want 100 false", n, ok)
	}
	// Immediate condition.
	if _, ok := k.RunUntil(100000, func() bool { return true }); !ok {
		t.Fatal("immediate condition missed")
	}
}

func TestFaultPlanString(t *testing.T) {
	if s := NoFaults().String(); s != "none{}" {
		t.Fatalf("got %q", s)
	}
	if s := (FaultPlan{Name: "single", Crashes: []Crash{{P: 1, At: 20}}}).String(); s != "single{1@20}" {
		t.Fatalf("got %q", s)
	}
}
