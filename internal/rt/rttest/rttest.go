// Package rttest checks a runtime against the execution contract in rt's
// package doc, in the manner of testing/fstest: Run runs each clause of the
// contract as a subtest on the runtimes a Factory builds, and a runtime that
// sits on another (transport.Reliable, rt.Paced) is checked over each runtime
// beneath it. On a virtual clock the checks are exact; on a wall clock those
// about time are bounds, and what happens eventually must happen within a
// deadline that only a hung or starved run reaches.
package rttest

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
)

// Host is one runtime composition under test: the runtime the clauses wire
// their handlers and actions on, and the controls that drive it.
type Host struct {
	rt.Runtime
	Prompt  rt.Runtime                        // over rt.Paced (see Paced): the runtime beneath, whose actions are not paced
	Start   func()                            // begins execution once a clause has wired everything
	Advance func(to rt.Time)                  // executes until Now() reaches to, or sooner if nothing is left to run
	Crash   func(p rt.ProcID)                 // called in a step of p, which takes no step after that one
	Stop    func()                            // ends execution: no step runs once it has returned
	Counter func(name string) int64           // reads a count by name
	Invoke  func(p rt.ProcID, fn func()) bool // where offered: runs fn as a step of p, reporting whether p accepted it
	Exact   bool                              // a virtual clock, where a timer fires exactly when due
	Lossy   bool                              // links that drop messages beneath a transport: their counts and its move too
}

// Factory builds a host over n processes whose records go to tr (nil: none).
type Factory func(t *testing.T, n int, tr rt.Tracer) *Host

// Paced returns a factory for the rt.Paced view of f's hosts.
func Paced(f Factory) Factory {
	return func(t *testing.T, n int, tr rt.Tracer) *Host {
		h := f(t, n, tr)
		h.Prompt, h.Runtime = h.Runtime, rt.Paced(h.Runtime)
		return h
	}
}

// Run checks the contract on the hosts f builds, one parallel subtest per
// clause.
func Run(t *testing.T, f Factory) {
	for _, c := range []struct {
		name  string
		check func(*testing.T, Factory)
	}{
		{"delivery", delivery}, {"serialized", serialized}, {"fairness", fairness},
		{"crash-stop", crashStop}, {"counts", counts}, {"timers-and-stamps", timers},
		{"registration", registration}, {"paced", paced},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			c.check(t, f)
		})
	}
}

// within is the deadline, in ticks, of whatever the contract says happens
// eventually. No clause needs more than a few hundred ticks.
const within = 25_000

// await advances h until cond holds, failing the test if it does not within
// the deadline, or h has nothing left to run first.
func await(t *testing.T, h *Host, what string, cond func() bool) {
	t.Helper()
	for deadline := h.Now() + within; !cond(); {
		now := h.Now()
		if now >= deadline {
			t.Fatalf("no %s within %d ticks", what, within)
		}
		if h.Advance(now + 1); h.Now() == now {
			t.Fatalf("no %s: nothing left to run at tick %d", what, now)
		}
	}
}

// Guard counts the steps running at each process.
type Guard struct {
	t  *testing.T
	in []atomic.Int32
}

// NewGuard returns a Guard over n processes.
func NewGuard(t *testing.T, n int) *Guard { return &Guard{t: t, in: make([]atomic.Int32, n)} }

// Wrap returns fn as a step of p that fails the test if another step of p
// runs meanwhile. It holds the step a moment, so an overlap has room to show.
func (g *Guard) Wrap(p rt.ProcID, fn func()) func() {
	return func() {
		if k := g.in[p].Add(1); k > 1 {
			g.t.Errorf("%d steps running at once at process %d", k, p)
		}
		for end := time.Now().Add(time.Microsecond); time.Now().Before(end); {
		}
		fn()
		g.in[p].Add(-1)
	}
}

// delivery: every message sent to a live process reaches its port's handler
// exactly once, with From, To and Payload intact and the port interned
// whichever form the sender used, and the host counts each send and each
// delivery once.
func delivery(t *testing.T, f Factory) {
	const n, per = 3, 40
	forms := []rt.Port{"rttest/delivery", rt.PortOf("rttest/delivery")}
	h := f(t, n, nil)
	got := make([][per]atomic.Int32, n) // by receiver, then payload
	var arrived atomic.Int64
	for q := rt.ProcID(1); q < n; q++ {
		h.Handle(q, forms[q%2], func(m rt.Message) {
			i, ok := m.Payload.(int)
			if !ok || m.From != 0 || m.To != q || m.Port != forms[1] || i < 0 || i >= per || got[q][i].Add(1) > 1 {
				t.Errorf("process %d received %v, a copy of a message delivered already or not sent", q, m)
			}
			arrived.Add(1)
		})
	}
	h.After(0, 1, func() {
		for i := 0; i < per; i++ {
			for q := rt.ProcID(1); q < n; q++ {
				h.Send(0, q, forms[i%2], i)
			}
		}
	})
	h.Start()
	defer h.Stop()
	await(t, h, "delivery of every message", func() bool { return arrived.Load() >= (n-1)*per })
	h.Advance(h.Now() + 300) // time for re-sent copies to land
	layer := "msg."
	if h.Lossy {
		layer = "transport."
	}
	for _, name := range []string{layer + "sent", layer + "delivered"} {
		if c := h.Counter(name); c != (n-1)*per {
			t.Errorf("%s = %d after %d messages", name, c, (n-1)*per)
		}
	}
}

// serialized: at each process, handlers, timers, actions and Invoke calls
// never overlap; one caller's Invoke calls at a process run there in order,
// every accepted call runs, and Invoke is refused once the host has stopped.
func serialized(t *testing.T, f Factory) {
	const n, ticks, callers, calls = 3, 40, 2, 300
	port := rt.PortOf("rttest/serialized")
	h, g := f(t, n, nil), NewGuard(t, n)
	var delivered, acted, invoked atomic.Int64
	for p := rt.ProcID(0); p < n; p++ {
		pending, chain := 0, 0 // p's state
		h.Handle(p, port, func(rt.Message) { g.Wrap(p, func() { pending++; delivered.Add(1) })() })
		h.AddAction(p, "serialized", func() bool { return pending > 0 }, g.Wrap(p, func() { pending--; acted.Add(1) }))
		var tick func()
		tick = g.Wrap(p, func() {
			if h.Send(p, (p+1)%n, port, nil); chain < ticks {
				chain++
				h.After(p, 1, tick)
			}
		})
		h.After(p, 1, tick)
	}
	h.Start()
	defer h.Stop()
	var wg sync.WaitGroup
	var last [n][callers]int // by process (its state) and caller: the caller's last call run there
	for c := 0; h.Invoke != nil && c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= calls; i++ {
				p := rt.ProcID(i % n)
				if !h.Invoke(p, g.Wrap(p, func() {
					if i <= last[p][c] {
						t.Errorf("caller %d's call %d ran at process %d after its call %d", c, i, p, last[p][c])
					}
					last[p][c] = i
					invoked.Add(1)
				})) {
					t.Errorf("Invoke refused at live process %d", p)
				}
			}
		}()
	}
	await(t, h, "end of the timer, message and action chains", func() bool {
		return delivered.Load() == n*(ticks+1) && acted.Load() == n*(ticks+1)
	})
	if wg.Wait(); h.Invoke != nil {
		await(t, h, "run of every Invoke call", func() bool { return invoked.Load() == callers*calls })
		if h.Stop(); h.Invoke(0, func() { t.Error("a call ran after Stop") }) {
			t.Error("Invoke accepted after Stop")
		}
	}
}

// fairness: two always-enabled actions alternate, their counts never more
// than 2 apart, and an action a timer enables later runs, while a flood of
// messages the process sends itself never lets its mailbox empty.
func fairness(t *testing.T, f Factory) {
	flood := rt.PortOf("rttest/flood")
	h := f(t, 1, nil)
	a, b, c, floods, gate := 0, 0, 0, 0, false // process 0's state
	var done atomic.Bool
	on := func() bool { return !done.Load() }
	run := func(name string, mine, other *int) func() {
		return func() {
			if *mine++; *mine-*other > 2 {
				t.Errorf("action %s ran %d times against %d", name, *mine, *other)
			}
			done.Store(c > 0 && a+b >= 100 && floods >= 10)
		}
	}
	h.AddAction(0, "a", on, run("a", &a, &b))
	h.AddAction(0, "b", on, run("b", &b, &a))
	h.AddAction(0, "c", func() bool { return gate }, func() { gate, c = false, c+1 })
	h.Handle(0, flood, func(rt.Message) {
		if floods++; on() {
			h.Send(0, 0, flood, nil)
		}
	})
	h.After(0, 1, func() { h.Send(0, 0, flood, nil) })
	h.After(0, 20, func() { gate = true })
	h.Start()
	defer h.Stop()
	await(t, h, "run of the timer-enabled action beside two always-enabled ones and a message flood", done.Load)
}

// records keeps every record traced; it is read once the host has stopped.
type records []rt.Record

func (rs *records) Trace(r rt.Record) { *rs = append(*rs, r) }

// crashRun is the run crash-stop and counts read. Process 0 sends process 1
// a message a tick for 100 ticks, each enabling an action there; process 2
// sends 0 one every 50 ticks, alone on that pair, so that over a transport a
// lost ack is not covered by a later one and the envelope is re-sent. At
// tick 50 a timer at 1 crashes 1; a timer there due at tick 75, and every
// step, delivery or timer at 1 after the crash, fails the test. crashRun
// returns, with the host running, once all 100 are sent, one sent after the
// crash is counted dropped, and 0 has heard from 2 since.
func crashRun(t *testing.T, f Factory, tr rt.Tracer) *Host {
	port, chatter := rt.PortOf("rttest/crash"), rt.PortOf("rttest/chatter")
	h := f(t, 3, tr)
	var dead atomic.Bool
	var delivered, stepped, pumped, heard atomic.Int64
	alive := func(what string) {
		if dead.Load() {
			t.Errorf("%s at process 1 after its crash", what)
		}
	}
	pending := 0 // process 1's state
	h.Handle(1, port, func(rt.Message) { alive("a delivery"); pending++; delivered.Add(1) })
	h.AddAction(1, "crash-stop", func() bool { return pending > 0 }, func() { alive("a step"); pending--; stepped.Add(1) })
	h.After(1, 50, func() { h.Crash(1); dead.Store(true) })
	h.After(1, 75, func() { alive("a timer") })
	var pump, chat func()
	pump = func() {
		if h.Send(0, 1, port, nil); pumped.Add(1) < 100 {
			h.After(0, 1, pump)
		}
	}
	chat = func() { h.Send(2, 0, chatter, nil); h.After(2, 50, chat) }
	h.After(0, 1, pump)
	h.After(2, 1, chat)
	h.Handle(0, chatter, func(rt.Message) {
		if dead.Load() {
			heard.Add(1)
		}
	})
	h.Start()
	t.Cleanup(h.Stop)
	await(t, h, "end of the message stream", func() bool { return pumped.Load() == 100 })
	await(t, h, "message to the crashed process counted in msg.dropped", func() bool {
		return h.Counter("msg.dropped") > h.Counter("msg.dropped.link")
	})
	await(t, h, "message between live processes after the crash", func() bool { return heard.Load() > 0 })
	if delivered.Load() == 0 || stepped.Load() == 0 {
		t.Fatalf("%d deliveries and %d steps at process 1 before its crash, want some", delivered.Load(), stepped.Load())
	}
	return h
}

// crashStop: once Crash(p) has run in a step of p, no step, delivery or timer
// runs at p, messages sent to p count in msg.dropped, Invoke is refused
// there, Crashed(p) reports the crash, one "crash" record at p is traced, and
// the other processes run on.
func crashStop(t *testing.T, f Factory) {
	var recs records
	h := crashRun(t, f, &recs)
	if !h.Crashed(1) || h.Crashed(0) {
		t.Errorf("Crashed(0), Crashed(1) = %v, %v after process 1 crashed", h.Crashed(0), h.Crashed(1))
	}
	if h.Invoke != nil && h.Invoke(1, func() { t.Error("an Invoke ran at a crashed process") }) {
		t.Error("Invoke accepted at a crashed process")
	}
	h.Stop()
	crashes := 0
	for _, r := range recs {
		if r.Kind == "crash" && r.P == 1 {
			crashes++
		}
	}
	if crashes != 1 {
		t.Errorf("%d crash records for process 1, want 1", crashes)
	}
}

// counts: what every runtime counts moves, under the same names on every
// host, and on a lossy host what the links and the transport count too (a
// duplicate envelope may take a few re-sent ones).
func counts(t *testing.T, f Factory) {
	h := crashRun(t, f, nil)
	names := []string{"steps", "msg.sent", "msg.delivered", "msg.dropped"}
	if h.Lossy {
		names = append(names, "msg.dropped.link", "link.dropped", "transport.sent", "transport.delivered",
			"transport.acks", "transport.retransmit", "transport.dup")
	}
	for _, name := range names {
		await(t, h, "move of "+name, func() bool { return h.Counter(name) > 0 })
	}
}

// timers: After(p, d, fn) runs fn at p once, no earlier than d ticks after it
// was armed (exactly then on a virtual clock). Each timer emits a record:
// Emit stamps T with Now() (between the Now() read before the Emit and the
// one after it, so exactly on a virtual clock), and Seq strictly increases
// along the trace.
func timers(t *testing.T, f Factory) {
	delays := []rt.Time{1, 2, 5, 13, 40}
	var recs records
	h := f(t, 2, &recs)
	var stamps [2][][2]rt.Time // by process (its state): Now() before and after each Emit
	var fired [2][5]atomic.Int32
	var all atomic.Int64
	for p := rt.ProcID(0); p < 2; p++ {
		h.After(p, 1, func() {
			armed := h.Now()
			for i, d := range delays {
				h.After(p, d, func() {
					before := h.Now()
					h.Emit(rt.Record{P: p, Kind: "rttest", Peer: -1, Note: strconv.Itoa(len(stamps[p]))})
					stamps[p] = append(stamps[p], [2]rt.Time{before, h.Now()})
					if late := before - armed; late < d || h.Exact && late != d {
						t.Errorf("timer of %d ticks at process %d ran %d ticks after it was armed", d, p, late)
					}
					if fired[p][i].Add(1) > 1 {
						t.Errorf("timer of %d ticks at process %d ran twice", d, p)
					}
					all.Add(1)
				})
			}
		})
	}
	h.Start()
	defer h.Stop()
	await(t, h, "run of every timer", func() bool { return all.Load() >= 2*5 })
	h.Advance(h.Now() + 50)
	h.Stop()
	traced := 0
	for i, r := range recs {
		if i > 0 && r.Seq <= recs[i-1].Seq {
			t.Errorf("record %d has Seq %d after %d", i, r.Seq, recs[i-1].Seq)
		}
		if k, _ := strconv.Atoi(r.Note); r.Kind == "rttest" {
			if traced++; r.T < stamps[r.P][k][0] || r.T > stamps[r.P][k][1] {
				t.Errorf("record %d of process %d stamped T=%d, emitted between ticks %v", k, r.P, r.T, stamps[r.P][k])
			}
		}
	}
	if traced != 2*5 {
		t.Errorf("traced %d of the %d records emitted", traced, 2*5)
	}
}

// registration: a port registered twice at one process panics, naming the
// port and the process (once at each of two processes is fine), and so does
// a message to a port its destination has no handler for, whether the port
// is interned or a literal.
func registration(t *testing.T, f Factory) {
	nop := func(rt.Message) {}
	for _, port := range []rt.Port{"rttest/literal", rt.PortOf("rttest/interned")} {
		t.Run(strings.TrimPrefix(port.String(), "rttest/"), func(t *testing.T) {
			mustCrash(t, fmt.Sprintf("no handler for port %q at process 1", port), func() {
				h := f(t, 2, nil)
				h.Handle(0, port, nop)
				h.After(0, 1, func() { h.Send(0, 1, port, nil) })
				h.Start()
				h.Advance(h.Now() + within)
			})
			h := f(t, 2, nil)
			defer h.Stop()
			h.Handle(0, port, nop)
			h.Handle(1, port, nop)
			defer func() {
				want := fmt.Sprintf("duplicate handler for port %q at process 1", port)
				if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
					t.Errorf("panic %q, want one containing %q", got, want)
				}
			}()
			h.Handle(1, port, nop)
		})
	}
}

// mustCrash fails the test unless f panics with a message containing want.
// A step may run on any of a runtime's goroutines, where a panic ends the
// process, so f runs in a child process that runs this subtest alone, and the
// child's output must show the panic.
func mustCrash(t *testing.T, want string, f func()) {
	const env = "RTTEST_CRASH" // names the subtest the child runs f in
	if os.Getenv(env) == t.Name() {
		f()
		t.Fatal("no panic")
	}
	run := strings.Split(t.Name(), "/")
	for i, name := range run {
		run[i] = "^" + regexp.QuoteMeta(name) + "$"
	}
	cmd := exec.Command(os.Args[0], "-test.run="+strings.Join(run, "/"))
	cmd.Env = append(os.Environ(), env+"="+t.Name())
	if out, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(out), want) {
		t.Errorf("want a panic containing %q; the run ended with %v and printed:\n%s", want, err, out)
	}
}

// paced: over an rt.Paced view, the paced steps of a process land on
// strictly increasing ticks, k always-enabled paced actions take turns, each
// running within any k consecutive paced steps, and an action added beneath
// the view (a prompt one) waits behind at most one paced step, while another
// prompt action stays enabled throughout.
func paced(t *testing.T, f Factory) {
	const k = 8
	h := f(t, 1, nil)
	if h.Prompt == nil {
		t.Skip("not an rt.Paced view")
	}
	var ticks []rt.Time // process 0's state: the tick and action of each paced step
	var order []int
	armed, before, probes := false, 0, 0
	var done atomic.Bool
	on := func() bool { return !done.Load() }
	for i := 0; i < k; i++ {
		h.AddAction(0, "paced", on, func() {
			ticks, order = append(ticks, h.Now()), append(order, i)
			done.Store(len(order) >= 100 && probes >= 25)
		})
	}
	h.Prompt.AddAction(0, "busy", on, func() {})
	h.Prompt.AddAction(0, "probe", func() bool { return armed }, func() {
		if armed, probes = false, probes+1; len(order)-before > 1 {
			t.Errorf("probe %d waited behind %d paced steps, want at most 1", probes, len(order)-before)
		}
	})
	var arm func()
	arm = func() {
		if armed, before = true, len(order); on() {
			h.After(0, 5, arm)
		}
	}
	h.After(0, 5, arm)
	h.Start()
	defer h.Stop()
	await(t, h, "100 paced steps and 25 prompt ones", done.Load)
	h.Stop()
	// On a wall clock a step may read the tick after its gate's, so two may
	// read one tick, but never three, and n steps span at least n-2 ticks.
	gap := 2
	if h.Exact {
		gap = 1
	}
	for i := gap; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-gap] {
			t.Fatalf("paced step %d at tick %d, %d after one at tick %d", i, ticks[i], gap, ticks[i-gap])
		}
	}
	if n := len(ticks); int(ticks[n-1]-ticks[0]) < n-2 {
		t.Errorf("%d paced steps within %d ticks", n, ticks[n-1]-ticks[0])
	}
	for i := 1; i < len(order); i++ { // so each of the k runs within any k
		if order[i] != (order[i-1]+1)%k {
			t.Fatalf("paced step %d ran action %d after action %d, out of rotation", i, order[i], order[i-1])
		}
	}
}
