package chaos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

func TestLiveSpecValidate(t *testing.T) {
	good := LiveSpec{Topology: "ring", N: 5, Seed: 1,
		Crashes: []LiveCrash{{P: 2, At: time.Second, RestartAfter: 500 * time.Millisecond}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	goodBlackout := LiveSpec{Topology: "ring", N: 5, Seed: 1,
		Blackout: &LiveBlackout{At: time.Second, RestartAfter: 500 * time.Millisecond}}
	if err := goodBlackout.Validate(); err != nil {
		t.Fatalf("good blackout spec rejected: %v", err)
	}
	if id := goodBlackout.ID(); !strings.Contains(id, "blackout@1s+500ms") {
		t.Errorf("blackout spec ID %q does not name the blackout", id)
	}
	// Reorder 200 at the default 500µs tick holds a message up to 100ms.
	goodReorder := LiveSpec{Topology: "ring", N: 5, Seed: 1, Links: &LinkSpec{Reorder: 200},
		Crashes: []LiveCrash{{P: 2, At: time.Second, RestartAfter: 101 * time.Millisecond}}}
	if err := goodReorder.Validate(); err != nil {
		t.Fatalf("restart gap past the longest hold rejected: %v", err)
	}
	bad := []LiveSpec{
		{Topology: "ring", N: 1},
		{Topology: "möbius", N: 5},
		{Topology: "ring", N: 2},
		{Topology: "ring", N: 5, Crashes: []LiveCrash{{P: 9, RestartAfter: time.Second}}},
		{Topology: "ring", N: 5, Crashes: []LiveCrash{{P: 1, At: time.Second}}}, // no gap
		{Topology: "ring", N: 5, Crashes: []LiveCrash{ // recovers after the half-point
			{P: 1, At: 3 * time.Second, RestartAfter: time.Second}}},
		{Topology: "ring", N: 5, Links: &LinkSpec{ // window past the half-point
			Windows: []WindowSpec{{Start: 0, End: 1 << 40, Drop: 1}}}},
		{Topology: "ring", N: 5, Crashes: []LiveCrash{ // duplicate crash
			{P: 1, At: time.Second, RestartAfter: 100 * time.Millisecond},
			{P: 1, At: time.Second, RestartAfter: 100 * time.Millisecond}}},
		{Topology: "ring", N: 5, // blackout and per-process crashes together
			Crashes:  []LiveCrash{{P: 1, At: time.Second, RestartAfter: 100 * time.Millisecond}},
			Blackout: &LiveBlackout{At: time.Second, RestartAfter: 100 * time.Millisecond}},
		{Topology: "ring", N: 5, // blackout without a restart gap
			Blackout: &LiveBlackout{At: time.Second}},
		{Topology: "ring", N: 5, // blackout recovering past the half-point
			Blackout: &LiveBlackout{At: 3 * time.Second, RestartAfter: time.Second}},
		{Topology: "ring", N: 5, Links: &LinkSpec{Reorder: 200}, // gap = the 100ms hold
			Crashes: []LiveCrash{{P: 1, At: time.Second, RestartAfter: 100 * time.Millisecond}}},
		{Topology: "ring", N: 5, Links: &LinkSpec{Dup: 0.1}, // gap within a duplicate's 8-tick lag
			Crashes: []LiveCrash{{P: 1, At: time.Second, RestartAfter: 3 * time.Millisecond}}},
		{Topology: "ring", N: 5, Links: &LinkSpec{Reorder: 400, Dup: 0.1}, // blackout gap within the hold
			Blackout: &LiveBlackout{At: time.Second, RestartAfter: 150 * time.Millisecond}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

// TestRunLiveChaos is the in-process acceptance run: message drops, one
// partition window, and one crash/restart against a real live table, with
// the shared checkers rendering the verdict. Timing-sensitive by nature, so
// the schedule is kept gentle enough for a loaded CI machine.
func TestRunLiveChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos run occupies seconds of wall clock")
	}
	spec := LiveSpec{
		Topology: "ring", N: 5, Seed: 7,
		Tick:     500 * time.Microsecond,
		Duration: 6 * time.Second,
		Links: &LinkSpec{
			Drop: 0.10,
			Windows: []WindowSpec{
				// ~0.5s..1s into the run: one side of the ring is cut off.
				{Start: 1000, End: 2000, Drop: 1, Side: []sim.ProcID{0, 1}},
			},
		},
		Crashes: []LiveCrash{{P: 2, At: 1500 * time.Millisecond, RestartAfter: 500 * time.Millisecond}},
	}
	res, err := RunLive(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("live chaos run failed: %v", res.Failures)
	}
	if res.Dropped == 0 {
		t.Error("fault schedule dropped nothing")
	}
	if res.Recovered != 1 {
		t.Errorf("recovered = %d, want 1", res.Recovered)
	}
	for p, meals := range res.Meals {
		if meals == 0 {
			t.Errorf("diner %d never ate", p)
		}
	}
}

// TestRunLiveBlackout is the in-process shape of internal/e2e's crash
// scenarios, and the acceptance run of the blackout itself: every process
// dies at once mid-run, the whole table restarts after the gap, and the run
// must still converge — all diners eating again, exclusion clean in the
// second half, and one recover record per process.
func TestRunLiveBlackout(t *testing.T) {
	if testing.Short() {
		t.Skip("live blackout run occupies seconds of wall clock")
	}
	spec := LiveSpec{
		Topology: "ring", N: 5, Seed: 11,
		Tick:     500 * time.Microsecond,
		Duration: 6 * time.Second,
		Blackout: &LiveBlackout{At: 1500 * time.Millisecond, RestartAfter: 500 * time.Millisecond},
	}
	res, err := RunLive(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("live blackout run failed: %v", res.Failures)
	}
	if res.Recovered != spec.N {
		t.Errorf("recovered = %d, want %d (the whole table)", res.Recovered, spec.N)
	}
	for p, meals := range res.Meals {
		if meals == 0 {
			t.Errorf("diner %d never ate", p)
		}
	}
}

// TestLiveCampaignInterrupt: an interrupt closed before the campaign starts
// skips every spec and the report says so.
func TestLiveCampaignInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	c := LiveCampaign{
		Specs:     []LiveSpec{{Topology: "ring", N: 5, Seed: 1}, {Topology: "ring", N: 5, Seed: 2}},
		Interrupt: interrupt,
	}
	rep := c.Run()
	if !rep.Interrupted() {
		t.Error("campaign not marked interrupted")
	}
	if rep.Skipped != 2 {
		t.Errorf("skipped = %d, want 2", rep.Skipped)
	}
	if rep.Clean() != true {
		t.Error("an interrupted-before-start campaign has no failures")
	}
	_ = rep.Render()
	_ = rt.ProcID(0)
}
