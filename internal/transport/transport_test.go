package transport_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/transport"
)

// lossyKernel builds an n-process kernel under a fair-lossy plan with the
// transport enabled; the test's modules are wired on the transport.
func lossyKernel(t *testing.T, n int, seed int64, plan sim.LinkPlan) (*sim.Kernel, *transport.Reliable) {
	t.Helper()
	k := sim.NewKernel(n, sim.WithSeed(seed), sim.WithDelay(sim.UniformDelay{Min: 1, Max: 8}))
	tr := transport.Enable(k, "rt", transport.Config{})
	if err := plan.Apply(k); err != nil {
		t.Fatal(err)
	}
	return k, tr
}

// TestExactlyOnceUnderLossDupReorder is the package contract: every message
// sent to a correct process arrives exactly once, in spite of 30% loss,
// duplication, reordering, and a total-loss window.
func TestExactlyOnceUnderLossDupReorder(t *testing.T) {
	plan := sim.LinkPlan{
		Name: "harsh", Drop: 0.3, Dup: 0.2, ReorderMax: 12,
		Windows: []sim.LossyWindow{{Start: 500, End: 900, Drop: 1}},
	}
	for _, seed := range []int64{1, 2, 3} {
		k, tr := lossyKernel(t, 2, seed, plan)
		const msgs = 200
		got := make(map[int]int)
		tr.Handle(1, "app", func(m sim.Message) { got[m.Payload.(int)]++ })
		tr.Handle(0, "app", func(sim.Message) {})
		for i := 0; i < msgs; i++ {
			i := i
			k.After(0, sim.Time(1+i*5), func() { tr.Send(0, 1, "app", i) })
		}
		k.Run(40000)
		for i := 0; i < msgs; i++ {
			if got[i] != 1 {
				t.Fatalf("seed %d: message %d delivered %d times, want exactly once", seed, i, got[i])
			}
		}
		if tr.Outstanding(0, 1) != 0 {
			t.Fatalf("seed %d: %d envelopes still unacked after the run", seed, tr.Outstanding(0, 1))
		}
		if tr.Counter("transport.retransmit") == 0 {
			t.Fatalf("seed %d: 30%% loss provoked no retransmissions", seed)
		}
		if tr.Counter("transport.delivered") != msgs {
			t.Fatalf("seed %d: transport.delivered=%d, want %d", seed, tr.Counter("transport.delivered"), msgs)
		}
	}
}

// TestDuplicateSuppression: link-level duplicates are acked but not
// re-delivered.
func TestDuplicateSuppression(t *testing.T) {
	k, tr := lossyKernel(t, 2, 7, sim.LinkPlan{Name: "dupy", Dup: 0.5})
	delivered := 0
	tr.Handle(1, "app", func(sim.Message) { delivered++ })
	const msgs = 100
	for i := 0; i < msgs; i++ {
		k.After(0, sim.Time(1+i*3), func() { tr.Send(0, 1, "app", nil) })
	}
	k.Run(5000)
	if delivered != msgs {
		t.Fatalf("delivered %d, want %d", delivered, msgs)
	}
	if tr.Counter("transport.dup") == 0 {
		t.Fatal("50% duplication suppressed no duplicates")
	}
}

// TestQuiescence: after everything is acked the transport generates no
// further wire traffic — retransmission is ack-driven, not periodic.
func TestQuiescence(t *testing.T) {
	k, tr := lossyKernel(t, 2, 5, sim.LinkPlan{Name: "mild", Drop: 0.2})
	tr.Handle(1, "app", func(sim.Message) {})
	for i := 0; i < 50; i++ {
		k.After(0, sim.Time(1+i), func() { tr.Send(0, 1, "app", nil) })
	}
	k.Run(20000)
	if tr.Outstanding(0, 1) != 0 {
		t.Fatalf("%d envelopes unacked at the horizon", tr.Outstanding(0, 1))
	}
	sent := k.Counter("msg.sent")
	// Quiescent: running the clock another long stretch moves no messages.
	k.Run(60000)
	if more := k.Counter("msg.sent") - sent; more != 0 {
		t.Fatalf("%d wire messages after quiescence", more)
	}
}

// TestCrashedDestinationBoundedProbing: a crashed destination is probed
// forever (the transport must not guess at crashes) but at the capped
// backoff rate, and only the retransmission window per burst.
func TestCrashedDestinationBoundedProbing(t *testing.T) {
	k := sim.NewKernel(2, sim.WithSeed(2), sim.WithDelay(sim.FixedDelay{D: 2}))
	tr := transport.Enable(k, "rt", transport.Config{RTO: 20, RTOMax: 160, Window: 8})
	tr.Handle(1, "app", func(sim.Message) {})
	k.CrashAt(1, 10)
	for i := 0; i < 40; i++ {
		k.After(0, sim.Time(20+i), func() { tr.Send(0, 1, "app", nil) })
	}
	k.Run(20000)
	retx := tr.Counter("transport.retransmit")
	if retx == 0 {
		t.Fatal("no probing of the silent destination")
	}
	// At the 160-tick cap with a window of 8, ~20000/160 bursts of ≤8:
	// generously bounded above; unbounded (per-message, uncapped) schemes
	// would be an order of magnitude past this.
	if retx > 1400 {
		t.Fatalf("%d retransmissions to a crashed destination; probing is not bounded", retx)
	}
	if k.Counter("msg.dropped.crash") == 0 {
		t.Fatal("no crash-drops recorded for the dead destination")
	}
}

// TestTransportDeterminism: two runs of the same seed produce identical
// counters — retransmission timing and map handling leak no nondeterminism.
func TestTransportDeterminism(t *testing.T) {
	run := func() map[string]int64 {
		k, tr := lossyKernel(t, 3, 42, sim.LinkPlan{Name: "harsh", Drop: 0.25, Dup: 0.1, ReorderMax: 9})
		for i := 0; i < 3; i++ {
			p := sim.ProcID(i)
			tr.Handle(p, "app", func(m sim.Message) {
				// Each delivery triggers a reply, fanning traffic out.
				if m.Payload.(int) > 0 {
					tr.Send(p, m.From, "app", m.Payload.(int)-1)
				}
			})
		}
		k.After(0, 1, func() { tr.Send(0, 1, "app", 40); tr.Send(0, 2, "app", 40) })
		k.Run(30000)
		return map[string]int64{
			"sent":  tr.Counter("transport.sent"),
			"retx":  tr.Counter("transport.retransmit"),
			"deliv": tr.Counter("transport.delivered"),
			"dup":   tr.Counter("transport.dup"),
			"wire":  k.Counter("msg.sent"),
		}
	}
	a, b := run(), run()
	for name, v := range a {
		if b[name] != v {
			t.Fatalf("counter %s diverged across identical runs: %d vs %d", name, v, b[name])
		}
	}
	if a["deliv"] != a["sent"] {
		t.Fatalf("delivered %d of %d logical sends", a["deliv"], a["sent"])
	}
}

// TestReliableWithoutLinkFaults: over already-reliable links the transport
// is a pass-through with ack overhead and zero retransmissions after acks
// arrive in time.
func TestReliableWithoutLinkFaults(t *testing.T) {
	k := sim.NewKernel(2, sim.WithSeed(1), sim.WithDelay(sim.FixedDelay{D: 2}))
	tr := transport.Enable(k, "rt", transport.Config{})
	n := 0
	tr.Handle(1, "app", func(sim.Message) { n++ })
	for i := 0; i < 100; i++ {
		k.After(0, sim.Time(1+i*10), func() { tr.Send(0, 1, "app", nil) })
	}
	k.Run(5000)
	if n != 100 {
		t.Fatalf("delivered %d of 100", n)
	}
	if retx := tr.Counter("transport.retransmit"); retx != 0 {
		t.Fatalf("%d spurious retransmissions with a 2-tick RTT and 40-tick RTO", retx)
	}
}

// TestHandlerRegistration is the transport's own wiring contract, the one
// both runtimes keep for their ports: a port registered twice through the
// transport panics, and so does an envelope whose restored port has no
// handler registered through it, naming the port and the process.
func TestHandlerRegistration(t *testing.T) {
	mustPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			got := fmt.Sprint(recover())
			if !strings.Contains(got, want) {
				t.Fatalf("panic %q, want one containing %q", got, want)
			}
		}()
		f()
	}
	// Both forms of a port: the panics name it by its name either way.
	app := rt.PortOf("app")
	t.Run("duplicate", func(t *testing.T) {
		tr := transport.Enable(sim.NewKernel(2), "rt", transport.Config{})
		tr.Handle(1, "app", func(sim.Message) {})
		tr.Handle(0, app, func(sim.Message) {}) // another process: fine
		mustPanic(t, `duplicate handler for port "app" at process 1`, func() {
			tr.Handle(1, app, func(sim.Message) {})
		})
	})
	t.Run("unhandled", func(t *testing.T) {
		k := sim.NewKernel(2)
		tr := transport.Enable(k, "rt", transport.Config{})
		tr.Handle(0, "app", func(sim.Message) {})
		tr.Send(0, 1, app, nil)
		mustPanic(t, `no handler for port "app" at process 1`, func() { k.Run(100) })
	})
}
