package live

import (
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestRestartMechanics exercises the runtime-level restart contract without
// protocol machinery: a timer armed by the dead incarnation never fires into
// the new one, the mailbox is discarded, and the reboot hook runs first.
func TestRestartMechanics(t *testing.T) {
	r := New(Config{N: 1, Tick: time.Millisecond})
	events := make(chan string, 16)
	r.AddAction(0, "noop", func() bool { return false }, func() {})
	r.Start()

	if r.Restart(0, nil) {
		t.Fatal("Restart accepted for a live process")
	}
	r.Invoke(0, func() {
		// Armed by the first incarnation, due well after the restart below;
		// the generation check must retire it instead of letting it fire
		// into the second incarnation.
		r.After(0, 60, func() { events <- "stale-timer" })
	})
	time.Sleep(20 * time.Millisecond)
	r.Crash(0)
	if r.Invoke(0, func() { events <- "dead-invoke" }) {
		t.Error("Invoke accepted at a crashed process")
	}
	time.Sleep(20 * time.Millisecond)
	if !r.Restart(0, func() { events <- "reboot" }) {
		t.Fatal("Restart refused for a crashed process")
	}
	r.Invoke(0, func() { events <- "post-restart" })
	r.Invoke(0, func() {
		r.After(0, 5, func() { events <- "fresh-timer" })
	})

	for _, w := range []string{"reboot", "post-restart", "fresh-timer"} {
		if got := await(t, events, w); got != w {
			t.Fatalf("event %q, want %q", got, w)
		}
	}
	select {
	case got := <-events:
		t.Fatalf("unexpected event %q after restart sequence", got)
	case <-time.After(150 * time.Millisecond):
	}
	r.Stop()
}

// TestTransportResetAfterRestart is the regression test for the armed-flag
// leak: a crash kills a pending retransmission timer but used to leave the
// sender marked armed, so after a restart no message lost on first copy was
// ever re-sent. The sequence drops a message's first transmission across a
// crash/restart, and requires (a) the dead incarnation's window is NOT
// replayed, and (b) retransmission works again for messages of the new one.
func TestTransportResetAfterRestart(t *testing.T) {
	r := New(Config{N: 2, Tick: time.Millisecond})
	// The gate: a Drop-1 partition window cutting 0 off from 1 in both
	// directions, installed to close it and removed to open it.
	gate := func(closed bool) {
		t.Helper()
		plan := sim.LinkPlan{Name: "gate"}
		if closed {
			plan.Windows = []sim.LossyWindow{{Start: 0, End: 1 << 40, Drop: 1, Side: []sim.ProcID{0}}}
		}
		if err := r.SetLinks(plan); err != nil {
			t.Fatal(err)
		}
	}
	tr := transport.Enable(r, "rt", transport.Config{RTO: 20})
	got := make(chan string, 16)
	tr.Handle(1, "t", func(m rt.Message) { got <- m.Payload.(string) })
	r.Start()
	defer r.Stop()

	recv := func(want string) {
		t.Helper()
		if g := await(t, got, want); g != want {
			t.Fatalf("received %q, want %q", g, want)
		}
	}

	r.Invoke(0, func() { tr.Send(0, 1, "t", "a") })
	recv("a") // baseline: transport delivers

	gate(true)
	r.Invoke(0, func() { tr.Send(0, 1, "t", "b") }) // first copy dropped
	time.Sleep(10 * time.Millisecond)               // armed, timer pending
	r.Crash(0)                                      // timer killed; armed leaks
	time.Sleep(50 * time.Millisecond)
	if !r.Restart(0, func() { tr.Reset(0) }) {
		t.Fatal("Restart refused")
	}
	// "b" died with the incarnation: its window was discarded, so it must
	// not surface even after the gate opens.
	r.Invoke(0, func() { tr.Send(0, 1, "t", "c") }) // first copy dropped too
	time.Sleep(10 * time.Millisecond)
	gate(false)
	recv("c") // only retransmission can deliver this
	// Sender state is process-serial, so read the window on 0's goroutine.
	outstanding := func() int {
		ch := make(chan int, 1)
		r.Invoke(0, func() { ch <- tr.Outstanding(0, 1) })
		return await(t, ch, "the outstanding window")
	}
	if n := outstanding(); n != 0 {
		// c acked; b's flight is gone. Give the ack a moment if needed.
		time.Sleep(100 * time.Millisecond)
		if n = outstanding(); n != 0 {
			t.Errorf("outstanding window = %d, want 0 (dead incarnation's flights discarded)", n)
		}
	}
	select {
	case g := <-got:
		t.Fatalf("dead incarnation's message %q was replayed", g)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestCrashRestartDining is the differential test of the issue: a diner
// crashes mid-critical-section, restarts with fresh protocol state (forks
// resync handshake plus heartbeat reset), rejoins the table, and the shared
// checkers — the same ones that validate simulator runs — report a clean
// ◇WX verdict on the live trace. Fork conservation is re-checked at the end:
// the restart must not have minted a duplicate fork.
func TestCrashRestartDining(t *testing.T) {
	log := &trace.Log{}
	g := graph.Ring(5)
	r := New(Config{N: 5, Tick: 500 * time.Microsecond, Tracer: log})
	oracle := detector.NewHeartbeat(r, "hb", liveHB)
	tbl := forks.New(r, g, "dine", oracle, forks.Config{})
	eating2 := make(chan struct{}, 1)
	tbl.Diner(2).OnChange(func(s dining.State) {
		if s != dining.Eating {
			return
		}
		select {
		case eating2 <- struct{}{}:
		default:
		}
	})
	for _, p := range g.Nodes() {
		dining.Drive(r, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 60, EatMin: 10, EatMax: 30, FirstHunger: 30,
		})
	}
	r.Start()

	// Crash 2 the moment it reports a critical section: the crash lands
	// mid-eating (or at worst just after), the hardest spot for safety.
	await(t, eating2, "diner 2 in the critical section")
	r.Crash(2)
	time.Sleep(400 * time.Millisecond)
	if !r.Restart(2, func() {
		tbl.Reset(2)
		oracle.Reset(2)
	}) {
		t.Fatal("Restart(2) refused")
	}
	time.Sleep(2 * time.Second)
	end := r.Now()
	r.Stop()

	// The trace must show the full crash/recover bracket.
	dead := log.DeadIntervals()
	if len(dead[2]) != 1 || !dead[2][0].Closed() {
		t.Fatalf("dead intervals of 2 = %v, want one closed interval", dead[2])
	}
	recoverT := dead[2][0].End

	// The restarted diner rejoins and eats again.
	eat := log.Sessions("eating")
	after := 0
	for _, iv := range eat[trace.SessionKey{Inst: "dine", P: 2}] {
		if iv.Start > recoverT {
			after++
		}
	}
	if after == 0 {
		t.Error("diner 2 never ate after its restart")
	}
	// Everyone else kept eating throughout.
	for _, p := range g.Nodes() {
		if p == 2 {
			continue
		}
		if meals := len(eat[trace.SessionKey{Inst: "dine", P: p}]); meals < 2 {
			t.Errorf("diner %d ate only %d meals", p, meals)
		}
	}
	// The shared safety checker, on the live trace, across the restart.
	if _, err := checker.EventualWeakExclusion(log, g, "dine", end/2, end); err != nil {
		t.Errorf("crash-restart run violates eventual weak exclusion: %v", err)
	}
	// Fork conservation after resync: no edge with two holders.
	for _, e := range g.Edges() {
		if tbl.HoldsFork(e[0], e[1]) && tbl.HoldsFork(e[1], e[0]) {
			t.Errorf("edge %d-%d has two fork holders after restart", e[0], e[1])
		}
	}
	if n := len(log.Filter(rt.Record{Kind: trace.KindRecover, P: 2, Peer: -1})); n != 1 {
		t.Errorf("recover records for 2 = %d, want 1", n)
	}
}
