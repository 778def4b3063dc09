package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
)

// The hand-off tests: when Invoke runs its call on the caller's goroutine,
// and that a step is still serialized and atomic at its process whichever
// goroutine runs it.

// startStalled marks r started without spawning its loops, so a job stays
// queued until the test spawns p's loop with r.spawn. A running loop drains
// its mailbox as soon as the step lock is free, which makes "a job queued
// and nobody stepping" too brief to test against.
func startStalled(r *Runtime) { r.started.Store(true) }

// woken reports whether a wake-up is waiting for p's loop, and takes it.
func woken(r *Runtime, p rt.ProcID) bool {
	select {
	case <-r.procs[p].notify:
		return true
	default:
		return false
	}
}

// stepGuard counts the steps running at each process and fails the test
// when a second step starts at a process while one is running there.
type stepGuard struct {
	t  *testing.T
	in []atomic.Int32
}

func newStepGuard(t *testing.T, n int) *stepGuard {
	return &stepGuard{t: t, in: make([]atomic.Int32, n)}
}

// wrap returns fn as a step at p, counted while it runs.
func (g *stepGuard) wrap(p rt.ProcID, fn func()) func() {
	return func() {
		if k := g.in[p].Add(1); k > 1 {
			g.t.Errorf("%d steps running at process %d at once", k, p)
		}
		fn()
		g.in[p].Add(-1)
	}
}

// TestInvokeRunsInlineAtAnIdleProcess: at an idle process — started, alive,
// nothing queued, nobody stepping — the call has run when Invoke returns,
// and an action it enabled has run too, with no wake-up left for the loop.
func TestInvokeRunsInlineAtAnIdleProcess(t *testing.T) {
	r := New(Config{N: 1, Tick: time.Hour})
	armed, fired := false, false // process 0's own state
	r.AddAction(0, "probe", func() bool { return armed }, func() { armed, fired = false, true })
	startStalled(r)
	ran := false
	if !r.Invoke(0, func() { ran, armed = true, true }) {
		t.Fatal("Invoke refused at a live process")
	}
	if !ran || !fired {
		t.Fatalf("after Invoke returned: call ran %v, enabled action ran %v; want both", ran, fired)
	}
	if woken(r, 0) {
		t.Error("an inline step with nothing left over woke the loop")
	}
}

// TestInvokeQueuesBehindAJob: a delivery waiting in the mailbox keeps an
// Invoke off the inline path although nobody holds the step lock, and the
// loop then runs the two in arrival order; further Invokes by one caller
// keep their order behind them.
func TestInvokeQueuesBehindAJob(t *testing.T) {
	r := New(Config{N: 1, Tick: time.Hour})
	var order []string // process 0's own state
	r.Handle(0, "m", func(m rt.Message) { order = append(order, m.Payload.(string)) })
	startStalled(r)
	r.Send(0, 0, "m", "delivery")
	for _, name := range []string{"invoke-1", "invoke-2"} {
		name := name
		ran := false
		r.Invoke(0, func() { ran = true; order = append(order, name) })
		if ran {
			t.Fatalf("%s ran inline ahead of a queued delivery", name)
		}
	}
	done := make(chan struct{})
	r.Invoke(0, func() { close(done) })
	r.spawn(r.procs[0])
	defer r.Stop()
	await(t, done, "the queued jobs")
	want := []string{"delivery", "invoke-1", "invoke-2"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestInlineStepDrainsWhatItQueues: jobs an inline step queues at its own
// process — an Invoke, as the served seat's self-kick is, and a message to
// itself — run before the caller lets go of the step lock, in order, and
// without waking the loop.
func TestInlineStepDrainsWhatItQueues(t *testing.T) {
	r := New(Config{N: 1, Tick: time.Hour})
	var order []string // process 0's own state
	r.Handle(0, "m", func(rt.Message) { order = append(order, "delivery") })
	startStalled(r)
	r.Invoke(0, func() {
		order = append(order, "outer")
		r.Invoke(0, func() { order = append(order, "kick") })
		r.Send(0, 0, "m", nil)
	})
	if got := len(order); got != 3 || order[1] != "kick" || order[2] != "delivery" {
		t.Fatalf("after Invoke returned: ran %v, want [outer kick delivery]", order)
	}
	if r.procs[0].pending() {
		t.Error("jobs left in the mailbox")
	}
	if woken(r, 0) {
		t.Error("jobs queued during an inline step woke the loop")
	}
}

// TestCrossInvokeNeitherDeadlocksNorOverlaps: a step at P that Invokes Q,
// whose step Invokes P back — the inner call runs inline at an idle Q, and
// queues at P, whose lock its own caller holds. Several callers race these
// chains against both loops; every step runs, and no two ever overlap at a
// process.
func TestCrossInvokeNeitherDeadlocksNorOverlaps(t *testing.T) {
	const callers, rounds = 4, 500
	r := New(Config{N: 2, Tick: time.Hour})
	g := newStepGuard(t, 2)
	var steps atomic.Int64
	leaf := g.wrap(0, func() { steps.Add(1) })
	atQ := g.wrap(1, func() { steps.Add(1); r.Invoke(0, leaf) })
	atP := g.wrap(0, func() { steps.Add(1); r.Invoke(1, atQ) })
	r.Start()
	defer r.Stop()

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Invoke(0, atP)
			}
		}()
	}
	wg.Wait()
	eventually(t, "every step of every chain", func() bool { return steps.Load() == 3*callers*rounds })
}

// TestNoLostWakeUp: callers race round trips at one process, so calls
// keep landing in its mailbox just as a burst ends — enqueue skips the
// wake-up while a burst runs, and the burst's runner must find the job
// after letting go. A lost one leaves its caller waiting for ever.
func TestNoLostWakeUp(t *testing.T) {
	const callers, rounds = 4, 20000
	r := New(Config{N: 1, Tick: time.Hour})
	r.Start()
	defer r.Stop()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				done := make(chan struct{})
				r.Invoke(0, func() { close(done) })
				select {
				case <-done:
				case <-time.After(schedTimeout):
					t.Errorf("round %d: an Invoke never ran", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRestartUnderInvokeFlood: callers flood a process with Invokes while it
// is crashed and restarted over and over. Every incarnation's first step is
// its reboot, no step of a dead incarnation runs once Restart has returned,
// and no two steps overlap.
func TestRestartUnderInvokeFlood(t *testing.T) {
	const callers, cycles = 3, 40
	r := New(Config{N: 1, Tick: time.Hour})
	g := newStepGuard(t, 1)
	inc := int64(0)             // process 0's own state: the incarnation reboot set
	var restarts atomic.Int64   // Restart calls that have returned
	var sinceStart atomic.Int64 // steps since the last restart
	step := g.wrap(0, func() {
		if k := restarts.Load(); inc < k {
			t.Errorf("a step of incarnation %d ran after restart %d returned", inc, k)
		}
		sinceStart.Add(1)
		// Stay inside the step a little, so a step the restart fails to
		// wait out is still running when Restart returns.
		for end := time.Now().Add(20 * time.Microsecond); time.Now().Before(end); {
		}
		if k := restarts.Load(); inc < k {
			t.Errorf("a step of incarnation %d was still running after restart %d returned", inc, k)
		}
	})
	r.Start()
	defer r.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Invoke(0, step)
				}
			}
		}()
	}
	for k := int64(1); k <= cycles; k++ {
		eventually(t, "steps in the new incarnation", func() bool { return sinceStart.Load() > 10 })
		r.Crash(0)
		k := k
		if !r.Restart(0, g.wrap(0, func() { inc = k })) {
			t.Fatalf("restart %d refused", k)
		}
		sinceStart.Store(0)
		restarts.Store(k)
	}
	close(stop)
	wg.Wait()
	done := make(chan int64, 1)
	r.Invoke(0, func() { done <- inc })
	if got := await(t, done, "a last step"); got != cycles {
		t.Fatalf("the last incarnation is %d, want %d: a reboot did not run", got, cycles)
	}
}
