package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The scheduler contract of the event-driven loop, pinned without leaning on
// host speed: every assertion is either a count the loop's iteration order
// fixes, an upper bound that pacing guarantees on any host, or "eventually"
// with a timeout only a starved (hung) class can reach.

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
// actions own the step clock, and a prompt action enabled by an Invoke still
// runs in the very iteration that ran the Invoke — no paced step in between,
// and so well inside one paced slot (a Tick). Under the single shared
// rotation it waited out up to eight slots.
func TestPromptActionSkipsThePacedRotation(t *testing.T) {
	const tick = 50 * time.Millisecond
	r := New(Config{N: 1, Tick: tick})
	var pacedSteps atomic.Int64
	for i := 0; i < 8; i++ {
		r.Paced().AddAction(0, "spin", always, func() { pacedSteps.Add(1) })
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
	for i := 0; i < 8; i++ {
		r.Paced().AddAction(0, "spin", always, func() { pacedSteps.Add(1) })
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
		r.Paced().AddAction(0, "paced", always, func() { pacedSteps.Add(1) })
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
		r.Paced().AddAction(0, "paced", always, func() { pacedSteps.Add(1) })
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

// TestRestartResetsTheScheduler: a new incarnation starts both rotations at
// the first action and owes the step clock nothing. A Tick is an hour (no
// timer is armed), so the second incarnation's paced step can only happen if
// Restart zeroed the clock, and each class reports action 0 again only if its
// cursor was reset.
func TestRestartResetsTheScheduler(t *testing.T) {
	r := New(Config{N: 1, Tick: time.Hour})
	var mu sync.Mutex
	var order []string
	record := func(s string) func() {
		return func() {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	seen := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(order) >= n
		}
	}
	for _, name := range []string{"paced0", "paced1"} {
		r.Paced().AddAction(0, name, always, record(name))
	}
	tokens := 0 // process 0's own state: prompt steps still allowed
	for _, name := range []string{"prompt0", "prompt1"} {
		rec := record(name)
		r.AddAction(0, name, func() bool { return tokens > 0 }, func() { tokens--; rec() })
	}
	r.Start()
	defer r.Stop()

	// First incarnation: one paced step (the clock then closes for an hour)
	// and one prompt step; both cursors now point at action 1.
	r.Invoke(0, func() { tokens = 1 })
	eventually(t, "the first incarnation's two steps", seen(2))
	r.Crash(0)
	if !r.Restart(0, func() { tokens = 1 }) {
		t.Fatal("Restart refused")
	}
	eventually(t, "the second incarnation's two steps", seen(4))

	mu.Lock()
	defer mu.Unlock()
	for _, half := range [][]string{order[:2], order[2:4]} {
		got := map[string]bool{half[0]: true, half[1]: true}
		if !got["paced0"] || !got["prompt0"] {
			t.Fatalf("step order %v: every incarnation must start with paced0 and prompt0", order)
		}
	}
}
