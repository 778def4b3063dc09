package chaos

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestExecuteDeterministic pins the determinism contract the repro pipeline
// rests on: identical (topology, box, fault plan, delay policy, seed) must
// yield bit-identical traces, for every box in the registry.
func TestExecuteDeterministic(t *testing.T) {
	for _, box := range Boxes() {
		spec := Spec{
			Topology: "ring", N: 5, Box: box, Seed: 11, Horizon: 8000,
			Delay:   DelaySpec{Kind: "gst", GST: 400, PreMax: 90, PostMax: 8},
			Crashes: []CrashSpec{{P: 3, At: 900}},
		}
		first := Execute(spec)
		if first.Log == nil || first.Log.Len() == 0 {
			t.Fatalf("%s: empty trace", box)
		}
		for i := 0; i < 2; i++ {
			again := Execute(spec)
			if again.TraceHash != first.TraceHash {
				t.Errorf("%s: run %d trace hash %x != %x", box, i+2, again.TraceHash, first.TraceHash)
			}
			if again.End != first.End || again.Category != first.Category {
				t.Errorf("%s: run %d diverged: end %d/%d, category %q/%q",
					box, i+2, again.End, first.End, again.Category, first.Category)
			}
		}
	}
}

// TestExecuteTraceExactAndRecycled: a Result's trace is allocated at its
// exact length, and the buffer runs record into carries nothing from one run
// into the next — a run after a longer one and a run after a shorter one
// record the same trace as the first run of the spec.
func TestExecuteTraceExactAndRecycled(t *testing.T) {
	short := Spec{Topology: "ring", N: 4, Box: "perfect", Seed: 3, Horizon: 3000,
		Delay: DelaySpec{Kind: "uniform", Min: 1, Max: 9}}
	long := short
	long.Box, long.N, long.Horizon = "forks", 6, 9000
	first := Execute(short)
	between := Execute(long)
	again := Execute(short)
	for _, r := range []*Result{first, between, again} {
		if n := r.Log.Len(); n == 0 || cap(r.Log.Records) != n {
			t.Fatalf("%s: %d records in a slice of capacity %d", r.Spec.ID(), n, cap(r.Log.Records))
		}
	}
	if between.Log.Len() <= first.Log.Len() {
		t.Fatalf("the long spec recorded %d records, the short one %d", between.Log.Len(), first.Log.Len())
	}
	if !reflect.DeepEqual(first.Log.Records, again.Log.Records) {
		t.Fatal("the short spec recorded a different trace after a longer run")
	}
	if later := Execute(long); !reflect.DeepEqual(between.Log.Records, later.Log.Records) {
		t.Fatal("the long spec recorded a different trace after a shorter run")
	}
	if &first.Log.Records[0] == &again.Log.Records[0] {
		t.Fatal("two results share one trace")
	}
}

// TestSeedChangesTrace is the other half of the contract: the hash is
// actually sensitive to the schedule, not a constant.
func TestSeedChangesTrace(t *testing.T) {
	spec := Spec{
		Topology: "ring", N: 5, Box: "forks", Seed: 1, Horizon: 8000,
		Delay: DelaySpec{Kind: "uniform", Min: 1, Max: 9},
	}
	a := Execute(spec)
	spec.Seed = 2
	b := Execute(spec)
	if a.TraceHash == b.TraceHash {
		t.Fatal("different seeds produced identical trace hashes")
	}
}

// TestCampaignCompliantBoxesClean is the headline acceptance run: the default
// campaign sweeps all four real dining boxes across topologies, sizes, seeds,
// and fault-plan shapes (240 runs) and none of them may violate a property.
func TestCampaignCompliantBoxesClean(t *testing.T) {
	rep := DefaultCampaign(0).Run()
	if rep.Runs < 200 {
		t.Fatalf("campaign ran %d specs, acceptance needs at least 200", rep.Runs)
	}
	if !rep.CompliantClean() {
		t.Fatalf("compliant boxes violated properties:\n%s", rep.Render())
	}
	for _, box := range []string{"forks", "token", "perfect", "trap"} {
		st := rep.ByBox[box]
		if st == nil || st.Runs == 0 {
			t.Errorf("box %s was not exercised", box)
		}
	}
}

// TestBuggyBoxCaughtAndShrunk proves the engine catches real violations: the
// planted-bug box (forks minus its crash-tolerance override) must be flagged
// under the state-triggered fault plan, and the shrinker must reduce the
// failure to a replayable repro with at most 2 crashes.
func TestBuggyBoxCaughtAndShrunk(t *testing.T) {
	c := Campaign{
		Boxes:      []string{"buggy"},
		Topologies: []string{"ring", "clique", "star"},
		Sizes:      []int{4, 6},
		Seeds:      []int64{1, 2},
		Horizon:    30000,
		Delays:     []DelaySpec{{Kind: "gst", GST: 800, PreMax: 120, PostMax: 8}},
		Plans:      []string{"none", "single", "eating", "staggered", "minority"},
	}
	rep := c.Run()
	if len(rep.Failures) == 0 {
		t.Fatal("planted-bug box survived the campaign uncaught")
	}
	// The bug is latent: it needs a fault to manifest, so the crash-free runs
	// must stay clean — that is what makes it a chaos-engine test and not a
	// smoke-test catch.
	var stateTriggered, multiCrash *Result
	for _, f := range rep.Failures {
		if len(f.Spec.Crashes) == 0 {
			t.Errorf("crash-free run %s failed (%s); the planted bug should be fault-triggered",
				f.Spec.ID(), f.First())
		}
		if f.Category != CatStarvation {
			t.Errorf("run %s failed as %q, want %q", f.Spec.ID(), f.Category, CatStarvation)
		}
		if stateTriggered == nil && len(f.Spec.Crashes) == 1 && f.Spec.Crashes[0].When != "" {
			stateTriggered = f
		}
		if multiCrash == nil && len(f.Spec.Crashes) >= 2 {
			multiCrash = f
		}
	}
	if stateTriggered == nil {
		t.Fatal("no state-triggered (crash-when-eating) failure in the campaign")
	}
	if multiCrash == nil {
		t.Fatal("no multi-crash failure in the campaign")
	}
	// Shrink one failure of each flavor (shrinking all ~40 is just wall-clock):
	// the state-triggered strike must survive as-is, and the multi-crash plan
	// must collapse to the few crashes that matter.
	var repros []*Repro
	for _, f := range []*Result{stateTriggered, multiCrash} {
		r, err := Shrink(f.Spec)
		if err != nil {
			t.Fatal(err)
		}
		repros = append(repros, r)
	}
	for _, r := range repros {
		if len(r.Spec.Crashes) > 2 {
			t.Errorf("repro %s kept %d crashes, acceptance bar is ≤ 2", r.Spec.ID(), len(r.Spec.Crashes))
		}
		if len(r.Spec.Crashes) == 0 {
			t.Errorf("repro %s has no crashes, yet the bug needs a fault to fire", r.Spec.ID())
		}
		if r.Spec.Horizon >= 30000 {
			t.Errorf("repro %s did not shrink the horizon", r.Spec.ID())
		}
		if _, err := r.Replay(); err != nil {
			t.Errorf("repro does not replay: %v", err)
		}
	}
}

// TestShrinkRejectsHealthySpec pins the shrinker's precondition.
func TestShrinkRejectsHealthySpec(t *testing.T) {
	_, err := Shrink(Spec{
		Topology: "ring", N: 4, Box: "forks", Seed: 1, Horizon: 5000,
		Delay: DelaySpec{Kind: "fixed", Delay: 4},
	})
	if err == nil || !strings.Contains(err.Error(), "does not fail") {
		t.Fatalf("got %v, want does-not-fail error", err)
	}
}

// TestWatchdogStopsRunawayRun wires the budget watchdog end to end: a run
// whose event budget is deliberately starved must come back as a structured
// watchdog diagnostic with the trace tail attached — the chaos-level face of
// the kernel's livelock defense.
func TestWatchdogStopsRunawayRun(t *testing.T) {
	res := Execute(Spec{
		Topology: "ring", N: 5, Box: "forks", Seed: 1, Horizon: 30000,
		Delay:  DelaySpec{Kind: "fixed", Delay: 4},
		Budget: BudgetSpec{MaxEvents: 2000},
	})
	if res.Category != CatWatchdog {
		t.Fatalf("got category %q (%v), want %q", res.Category, res.First(), CatWatchdog)
	}
	if res.Failure == nil || res.Failure.Watchdog == nil {
		t.Fatal("watchdog result carries no structured failure")
	}
	w := res.Failure.Watchdog
	if w.Events < 2000 {
		t.Errorf("budget records %d events, expected at least the 2000 cap", w.Events)
	}
	if len(w.Tail) == 0 {
		t.Error("watchdog diagnostic has no trace tail")
	}
	diag := w.Diagnostic()
	for _, want := range []string{"events", "trace tail"} {
		if !strings.Contains(diag, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, diag)
		}
	}
	if res.End >= 30000 {
		t.Errorf("watchdog did not stop the run early (end=%d)", res.End)
	}
}

// TestReplayRepros replays every committed repro artifact under testdata/ and
// asserts the recorded violation still reproduces — shrunk counterexamples
// double as permanent regression tests.
func TestReplayRepros(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no repro artifacts committed under testdata/")
	}
	for _, path := range paths {
		r, err := LoadRepro(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res, err := r.Replay()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		t.Logf("%s: %s replayed to [%s] %s", filepath.Base(path), r.Spec.ID(), res.Category, res.First())
	}
}
