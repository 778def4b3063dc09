package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
)

// The scheduler contract of the event-driven loop, with cycles paced through
// rt.Paced, pinned without leaning on host speed: every assertion is either a
// count the loop's iteration order fixes, an upper bound that pacing
// guarantees on any host, or "eventually" with a timeout only a starved
// (hung) class can reach. Each test wires its paced actions through one view:
// a second view would be a second tempo.

const schedTimeout = 5 * time.Second

func always() bool { return true }

// await fails the test unless ch delivers within schedTimeout.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(schedTimeout):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// eventually polls cond until it holds or schedTimeout passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(schedTimeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPromptActionSkipsThePacedRotation: eight permanently enabled paced
// actions stand behind one gate in the process's rotation, and a prompt
// action enabled by an Invoke still runs in the very iteration that ran the
// Invoke — no paced step in between (the gate stays shut for the rest of its
// tick), and so well inside one paced slot (a Tick). In a rotation shared
// with the eight paced actions themselves it would wait out up to eight
// slots.
func TestPromptActionSkipsThePacedRotation(t *testing.T) {
	const tick = 50 * time.Millisecond
	r := New(Config{N: 1, Tick: tick})
	var pacedSteps atomic.Int64
	paced := rt.Paced(r)
	for i := 0; i < 8; i++ {
		paced.AddAction(0, "spin", always, func() { pacedSteps.Add(1) })
	}
	type stamp struct {
		at    time.Time
		paced int64
	}
	armed := false // process 0's own state
	ran := make(chan stamp, 1)
	r.AddAction(0, "probe", func() bool { return armed }, func() {
		armed = false
		ran <- stamp{time.Now(), pacedSteps.Load()}
	})
	r.Start()
	defer r.Stop()

	// Let the paced class take the clock: from here on the loop is asleep
	// inside a paced slot whenever the Invoke lands.
	eventually(t, "the first paced step", func() bool { return pacedSteps.Load() > 0 })
	for i := 0; i < 5; i++ {
		var before int64
		t0 := time.Now()
		r.Invoke(0, func() { before = pacedSteps.Load(); armed = true })
		got := await(t, ran, "the prompt action")
		if between := got.paced - before; between != 0 {
			t.Errorf("round %d: %d paced steps ran between the Invoke and the prompt action it enabled, want 0", i, between)
		}
		if d := got.at.Sub(t0); d >= tick {
			t.Errorf("round %d: prompt action ran %v after the Invoke, want under Tick = %v", i, d, tick)
		}
	}
}

// TestPacedStepsRespectTheStepClock: however busy the process is with jobs
// and prompt steps, its paced class takes at most one step per Tick — the
// k-th step is at least (k-1)·Tick after the first, so the count over any
// interval is bounded by elapsed/Tick + 1 on any host.
func TestPacedStepsRespectTheStepClock(t *testing.T) {
	const tick = 5 * time.Millisecond
	r := New(Config{N: 1, Tick: tick})
	var pacedSteps atomic.Int64
	paced := rt.Paced(r)
	for i := 0; i < 8; i++ {
		paced.AddAction(0, "spin", always, func() { pacedSteps.Add(1) })
	}
	// A prompt action that never disables keeps the loop iterating at full
	// speed: the step clock, not idleness, must be what rations the class.
	r.AddAction(0, "busy", always, func() {})
	t0 := time.Now()
	r.Start()
	time.Sleep(200 * time.Millisecond)
	steps := pacedSteps.Load()
	bound := int64(time.Since(t0)/tick) + 1
	r.Stop()
	if steps > bound {
		t.Errorf("%d paced steps in an interval that allows at most %d", steps, bound)
	}
	if steps == 0 {
		t.Error("the paced class never stepped")
	}
	if r.Counter("yields") == 0 {
		t.Error("a permanently enabled prompt action never exhausted the step budget")
	}
}

// TestNoClassStarvesAnother re-pins weak fairness per class: a permanently
// enabled prompt action holds off neither jobs, nor a due paced step, nor
// its fellow prompt actions; and a job flood beside a permanently enabled
// paced action holds off neither a prompt action nor the paced class.
func TestNoClassStarvesAnother(t *testing.T) {
	t.Run("prompt cycle", func(t *testing.T) {
		r := New(Config{N: 1, Tick: time.Millisecond})
		var prompt [3]atomic.Int64
		for i := range prompt {
			i := i
			r.AddAction(0, "spin", always, func() { prompt[i].Add(1) })
		}
		var pacedSteps atomic.Int64
		rt.Paced(r).AddAction(0, "paced", always, func() { pacedSteps.Add(1) })
		r.Start()
		defer r.Stop()

		eventually(t, "every prompt action to run", func() bool {
			return prompt[0].Load() > 0 && prompt[1].Load() > 0 && prompt[2].Load() > 0
		})
		done := make(chan struct{})
		for i := 0; i < 100; i++ {
			r.Invoke(0, func() {})
		}
		r.Invoke(0, func() { close(done) })
		await(t, done, "jobs behind a permanently enabled prompt action")
		base := pacedSteps.Load()
		eventually(t, "paced steps behind a permanently enabled prompt action", func() bool {
			return pacedSteps.Load() >= base+3
		})
	})

	t.Run("job flood and paced cycle", func(t *testing.T) {
		r := New(Config{N: 1, Tick: time.Millisecond})
		var pacedSteps atomic.Int64
		rt.Paced(r).AddAction(0, "paced", always, func() { pacedSteps.Add(1) })
		armed := false
		ran := make(chan struct{}, 1)
		r.AddAction(0, "probe", func() bool { return armed }, func() { armed = false; ran <- struct{}{} })
		var flood func()
		flood = func() { r.Invoke(0, flood) } // the mailbox is never empty again
		r.Start()
		defer r.Stop()
		r.Invoke(0, flood)

		r.Invoke(0, func() { armed = true })
		await(t, ran, "a prompt action behind a job flood")
		base := pacedSteps.Load()
		eventually(t, "paced steps behind a job flood", func() bool {
			return pacedSteps.Load() >= base+3
		})
	})
}

// TestRestartResetsTheScheduler: a new incarnation starts the rotation at
// the first action. Each incarnation may take one step, so the second reports
// action 0 again only if Restart rewound the cursor.
func TestRestartResetsTheScheduler(t *testing.T) {
	r := New(Config{N: 1, Tick: time.Hour})
	var mu sync.Mutex
	var order []string
	seen := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(order) >= n
		}
	}
	tokens := 0 // process 0's own state: steps still allowed
	for _, name := range []string{"action0", "action1"} {
		name := name
		r.AddAction(0, name, func() bool { return tokens > 0 }, func() {
			tokens--
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		})
	}
	r.Start()
	defer r.Stop()

	// First incarnation: one step, after which the cursor points at action 1.
	r.Invoke(0, func() { tokens = 1 })
	eventually(t, "the first incarnation's step", seen(1))
	r.Crash(0)
	if !r.Restart(0, func() { tokens = 1 }) {
		t.Fatal("Restart refused")
	}
	eventually(t, "the second incarnation's step", seen(2))

	mu.Lock()
	defer mu.Unlock()
	if order[0] != "action0" || order[1] != "action0" {
		t.Fatalf("step order %v: every incarnation must start with action0", order)
	}
}
