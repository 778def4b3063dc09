package transport_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/transport"
)

// counted is what the parity test needs of a runtime: the runtime itself
// plus the by-name read side.
type counted interface {
	rt.Runtime
	Counter(name string) int64
}

// TestCounterParity wires the same system — the reliable transport over a
// medium that eats 30% of the messages, a ping-pong between two processes
// driven by one guarded action, then a crash of the ponger — on both
// runtimes, and requires both to have counted it under the same names: the
// runtime's own, and the transport's, read from each side's transport.
// Names only one runtime keeps are listed here and nowhere else: the
// simulator splits out msg.dropped's crash share and counts sends per port
// prefix; the live runtime counts yields.
func TestCounterParity(t *testing.T) {
	shared := []string{
		"steps", "msg.sent", "msg.delivered", "msg.dropped",
		"msg.dropped.link", "link.dropped",
	}
	transported := []string{
		"transport.sent", "transport.delivered", "transport.acks",
		"transport.retransmit", "transport.dup",
	}
	simOnly := []string{"msg.dropped.crash", "msg.sent:rt"}
	liveOnly := []string{"yields"} // which this run need not reach: live may read 0
	plan := sim.LinkPlan{Name: "lossy", Drop: 0.3}
	const rounds = 40

	// wire installs the system on r over the transport and returns the
	// transport and the pong count.
	wire := func(r counted) (*transport.Reliable, *atomic.Int64) {
		tr := transport.Enable(r, "rt", transport.Config{})
		var pongs atomic.Int64
		serve := true // process 0's state: its turn to ping
		tr.AddAction(0, "ping", func() bool { return serve }, func() {
			serve = false
			tr.Send(0, 1, "pp", nil)
		})
		tr.Handle(1, "pp", func(rt.Message) { tr.Send(1, 0, "pp", nil) })
		tr.Handle(0, "pp", func(rt.Message) {
			pongs.Add(1)
			serve = true
		})
		return tr, &pongs
	}

	k := sim.NewKernel(2, sim.WithSeed(3))
	if err := plan.Apply(k); err != nil {
		t.Fatal(err)
	}
	simTr, simPongs := wire(k)
	k.RunUntil(1_000_000, func() bool { return simPongs.Load() >= rounds })
	k.CrashAt(1, k.Now()+1)
	k.Run(k.Now() + 2_000) // process 0 keeps pinging a dead peer

	r := live.New(live.Config{N: 2, Tick: 200 * time.Microsecond, Seed: 3})
	if err := r.SetLinks(plan); err != nil {
		t.Fatal(err)
	}
	liveTr, livePongs := wire(r)
	r.Start()
	defer r.Stop()
	deadline := time.Now().Add(20 * time.Second)
	for livePongs.Load() < rounds {
		if time.Now().After(deadline) {
			t.Fatalf("live ping-pong stalled at %d of %d rounds", livePongs.Load(), rounds)
		}
		time.Sleep(time.Millisecond)
	}
	r.Crash(1)
	// Process 0 may be waiting on a pong that died unacked with process 1,
	// its own ping already acked: then it has nothing left to send. Give it
	// one message that it retransmits until a copy reaches the dead peer.
	r.Invoke(0, func() { liveTr.Send(0, 1, "pp", nil) })
	// Wait for a retransmission to reach the dead peer: a drop beyond the
	// link's (read second, as a link drop counts there first).
	for r.Counter("msg.dropped") <= r.Counter("link.dropped") {
		if time.Now().After(deadline) {
			t.Fatal("no message to the crashed process was ever dropped")
		}
		time.Sleep(time.Millisecond)
	}

	for _, name := range shared {
		if s, l := k.Counter(name), r.Counter(name); s == 0 || l == 0 {
			t.Errorf("%s: sim=%d live=%d, want both non-zero", name, s, l)
		}
	}
	for _, name := range transported {
		if s, l := simTr.Counter(name), liveTr.Counter(name); s == 0 || l == 0 {
			t.Errorf("%s: sim=%d live=%d, want both non-zero", name, s, l)
		}
	}
	for _, name := range simOnly {
		if s, l := k.Counter(name), r.Counter(name); s == 0 || l != 0 {
			t.Errorf("%s: sim=%d live=%d, want a sim-only counter", name, s, l)
		}
	}
	for _, name := range liveOnly {
		if s := k.Counter(name); s != 0 {
			t.Errorf("%s: sim=%d, want a live-only counter", name, s)
		}
	}
	// The simulator can list what it counted: nothing outside the two lists.
	known := make(map[string]bool)
	for _, name := range append(shared, simOnly...) {
		known[name] = true
	}
	for _, line := range k.Counters() {
		if name, _, _ := strings.Cut(line, "="); !known[name] {
			t.Errorf("sim counted under an undocumented name: %s", line)
		}
	}
}
