package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestCrashWhen: a state-predicate crash fires the first time the predicate
// holds after an event, at the then-current virtual time.
func TestCrashWhen(t *testing.T) {
	k := NewKernel(2)
	n := 0
	k.AddAction(0, "inc", func() bool { return n < 50 }, func() { n++ })
	k.CrashWhen(0, "n reached 10", func() bool { return n >= 10 })
	k.Run(100000)
	if !k.Crashed(0) {
		t.Fatal("trigger never fired")
	}
	if n != 10 {
		t.Fatalf("crashed at n=%d, want 10 (the instant the predicate held)", n)
	}
	if k.Crashed(1) {
		t.Fatal("wrong process crashed")
	}
	if ct := k.CrashTime(0); ct <= 0 {
		t.Fatalf("bad crash time %d", ct)
	}
}

// TestCrashWhenEmitsRecordWithNote: the trigger's label reaches the crash
// trace record, and the trigger is one-shot.
func TestCrashWhenEmitsRecordWithNote(t *testing.T) {
	rec := &recorder{}
	k := NewKernel(1, WithTracer(rec))
	n := 0
	k.AddAction(0, "inc", func() bool { return n < 5 }, func() { n++ })
	k.CrashWhen(0, "test-trigger", func() bool { return n >= 2 })
	k.Run(10000)
	var crashes []Record
	for _, r := range rec.records {
		if r.Kind == "crash" {
			crashes = append(crashes, r)
		}
	}
	if len(crashes) != 1 {
		t.Fatalf("%d crash records, want 1", len(crashes))
	}
	if crashes[0].Note != "test-trigger" {
		t.Fatalf("crash note %q, want the trigger label", crashes[0].Note)
	}
}

type recorder struct{ records []Record }

func (r *recorder) Trace(rec Record) { r.records = append(r.records, rec) }

// TestWatchdogStepBudget: a livelocked action system (always enabled, no
// progress) is stopped by the step budget long before the horizon, with a
// structured diagnostic carrying the counters and the trace tail.
func TestWatchdogStepBudget(t *testing.T) {
	k := NewKernel(2)
	k.AddAction(0, "spin", func() bool { return true }, func() {
		k.Emit(Record{P: 0, Kind: "mark", Peer: -1, Note: "spinning"})
	})
	k.SetBudget(Budget{MaxSteps: 500})
	end, fail := k.RunProtected(1 << 40)
	if fail == nil || fail.Watchdog == nil {
		t.Fatal("watchdog did not fire on a livelocked run")
	}
	wd := fail.Watchdog
	if wd.Steps <= 500 || wd.At != end {
		t.Fatalf("diagnostic inconsistent: steps=%d at=%d end=%d", wd.Steps, wd.At, end)
	}
	if len(wd.Tail) == 0 {
		t.Fatal("diagnostic has no trace tail")
	}
	if !strings.Contains(wd.Tail[len(wd.Tail)-1].Note, "spinning") {
		t.Fatalf("tail does not show the livelocked activity: %+v", wd.Tail[len(wd.Tail)-1])
	}
	if !strings.Contains(wd.Diagnostic(), "livelock") {
		t.Fatalf("diagnostic text: %q", wd.Diagnostic())
	}
}

// TestWatchdogQueueBudget: runaway event amplification (each delivery sends
// two more messages) trips the queue budget.
func TestWatchdogQueueBudget(t *testing.T) {
	k := NewKernel(2)
	var amplify Handler
	amplify = func(m Message) {
		k.Send(m.To, m.From, "amp", nil)
		k.Send(m.To, m.From, "amp", nil)
	}
	k.Handle(0, "amp", amplify)
	k.Handle(1, "amp", amplify)
	k.Send(0, 1, "amp", nil)
	k.SetBudget(Budget{MaxQueue: 2000})
	_, fail := k.RunProtected(1 << 40)
	if fail == nil || fail.Watchdog == nil {
		t.Fatal("queue watchdog did not fire on exponential amplification")
	}
	if fail.Watchdog.QueueLen <= 2000 {
		t.Fatalf("queue length %d at breach, want > 2000", fail.Watchdog.QueueLen)
	}
}

// TestWatchdogQuietRun: a healthy run under a generous budget completes with
// no failure and Exhausted stays nil.
func TestWatchdogQuietRun(t *testing.T) {
	k := NewKernel(2)
	n := 0
	k.AddAction(0, "inc", func() bool { return n < 100 }, func() { n++ })
	k.SetBudget(Budget{MaxSteps: 10000, MaxEvents: 100000, MaxQueue: 1000})
	_, fail := k.RunProtected(1 << 30)
	if fail != nil {
		t.Fatalf("healthy run failed: %v", fail)
	}
	if k.Exhausted() != nil {
		t.Fatal("Exhausted set on a healthy run")
	}
	if n != 100 {
		t.Fatalf("run incomplete: n=%d", n)
	}
}

// TestRunProtectedRecoversPanic: a protocol panic becomes a structured
// failure with the stack and trace tail, not a test crash.
func TestRunProtectedRecoversPanic(t *testing.T) {
	k := NewKernel(1)
	k.After(0, 10, func() {
		k.Emit(Record{P: 0, Kind: "mark", Peer: -1, Note: "about to blow"})
		panic("planted protocol bug")
	})
	end, fail := k.RunProtected(1000)
	if fail == nil || fail.Panic == nil {
		t.Fatal("panic was not converted into a failure")
	}
	if got := fail.Error(); !strings.Contains(got, "planted protocol bug") {
		t.Fatalf("failure message %q does not carry the panic", got)
	}
	if !strings.Contains(fail.Stack, "robust_test") {
		t.Fatal("failure carries no useful stack")
	}
	if len(fail.Tail) == 0 || fail.Tail[len(fail.Tail)-1].Note != "about to blow" {
		t.Fatalf("failure tail missing context: %v", fail.Tail)
	}
	if end != 10 {
		t.Fatalf("failure at t=%d, want 10", end)
	}
}

// TestTailRingBuffer: the diagnostic tail keeps the most recent records in
// order, capped at its capacity, even with no tracer attached.
func TestTailRingBuffer(t *testing.T) {
	k := NewKernel(1)
	if got := k.Tail(); len(got) != 0 {
		t.Fatalf("fresh kernel has tail %v", got)
	}
	total := tailCap + 17
	for i := 0; i < total; i++ {
		k.Emit(Record{P: 0, Kind: "mark", Peer: -1, Note: fmt.Sprintf("m%d", i)})
	}
	tail := k.Tail()
	if len(tail) != tailCap {
		t.Fatalf("tail length %d, want %d", len(tail), tailCap)
	}
	if tail[0].Note != fmt.Sprintf("m%d", total-tailCap) || tail[len(tail)-1].Note != fmt.Sprintf("m%d", total-1) {
		t.Fatalf("tail window wrong: first=%s last=%s", tail[0].Note, tail[len(tail)-1].Note)
	}
}

// pinWorkload keeps the kernel busy on every path the watchdog counts: each
// process spins an always-enabled action that sends to its ring successor
// every third step and marks the trace every fifth, handles those messages,
// and runs a periodic timer. amplify adds a port on which every delivery
// sends two more messages, for the queue limit.
func pinWorkload(k *Kernel, amplify bool) {
	n := ProcID(k.N())
	for p := ProcID(0); p < n; p++ {
		p, cnt := p, 0
		k.AddAction(p, "work", func() bool { return true }, func() {
			cnt++
			if cnt%3 == 0 {
				k.Send(p, (p+1)%n, "ping", cnt)
			}
			if cnt%5 == 0 {
				k.Emit(Record{P: p, Kind: "mark", Peer: -1, Note: fmt.Sprint("work ", cnt)})
			}
		})
		k.Handle(p, "ping", func(m Message) {
			k.Emit(Record{P: m.To, Kind: "recv", Peer: m.From, Note: fmt.Sprint(m.Payload)})
		})
		k.Handle(p, "amp", func(m Message) {
			k.Send(m.To, m.From, "amp", nil)
			k.Send(m.To, m.From, "amp", nil)
		})
		var tick func()
		tick = func() {
			k.Emit(Record{P: p, Kind: "tick", Peer: -1})
			k.After(p, 17, tick)
		}
		k.After(p, 17, tick)
	}
	if amplify {
		k.After(0, 40, func() { k.Send(0, 1, "amp", nil) })
	}
}

// TestWatchdogPin pins the watchdog's exact verdict — which limit, on which
// event, with which counters, queue length, time and trace tail — for each
// limit alone, for all three at once, and for a budget replaced mid-run,
// between two Runs and from inside an event. Any change to how often or when
// the kernel checks its budget must leave every line unchanged.
func TestWatchdogPin(t *testing.T) {
	cases := []struct {
		name string
		run  func(k *Kernel) *BudgetExceeded
		want string
	}{
		{"steps", func(k *Kernel) *BudgetExceeded {
			pinWorkload(k, false)
			k.SetBudget(Budget{MaxSteps: 400})
			k.Run(1 << 40)
			return k.Exhausted()
		}, "sim: watchdog at t=267: step budget exceeded (401 > 400): livelock suspected (steps=401 events=577 queue=8) | tail 48 seq 690..840 9549ea861d105a2d"},
		{"events", func(k *Kernel) *BudgetExceeded {
			pinWorkload(k, false)
			k.SetBudget(Budget{MaxEvents: 900})
			k.Run(1 << 40)
			return k.Exhausted()
		}, "sim: watchdog at t=419: event budget exceeded (901 > 900): livelock suspected (steps=625 events=901 queue=9) | tail 48 seq 1154..1307 6380536cd9277bd2"},
		{"queue", func(k *Kernel) *BudgetExceeded {
			pinWorkload(k, true)
			k.SetBudget(Budget{MaxQueue: 300})
			k.Run(1 << 40)
			return k.Exhausted()
		}, "sim: watchdog at t=82: event queue exceeded 300 entries (301): runaway scheduling (steps=126 events=468 queue=301) | tail 48 seq 105..738 36cfca8bf35c86b4"},
		{"all three, steps first", func(k *Kernel) *BudgetExceeded {
			pinWorkload(k, false)
			k.SetBudget(Budget{MaxSteps: 700, MaxEvents: 1500, MaxQueue: 1000})
			k.Run(1 << 40)
			return k.Exhausted()
		}, "sim: watchdog at t=472: step budget exceeded (701 > 700): livelock suspected (steps=701 events=1013 queue=8) | tail 48 seq 1322..1468 805a2a2f214ac408"},
		{"all three, events first", func(k *Kernel) *BudgetExceeded {
			pinWorkload(k, false)
			k.SetBudget(Budget{MaxSteps: 700, MaxEvents: 800, MaxQueue: 1000})
			k.Run(1 << 40)
			return k.Exhausted()
		}, "sim: watchdog at t=370: event budget exceeded (801 > 800): livelock suspected (steps=556 events=801 queue=8) | tail 48 seq 1017..1160 980df4861bec1ecc"},
		{"all three, queue first", func(k *Kernel) *BudgetExceeded {
			pinWorkload(k, true)
			k.SetBudget(Budget{MaxSteps: 700, MaxEvents: 1500, MaxQueue: 1000})
			k.Run(1 << 40)
			return k.Exhausted()
		}, "sim: watchdog at t=89: event queue exceeded 1000 entries (1001): runaway scheduling (steps=136 events=1188 queue=1001) | tail 48 seq 137..1633 7f5ab42cfa1b921d"},
		{"set between runs", func(k *Kernel) *BudgetExceeded {
			pinWorkload(k, false)
			k.SetBudget(Budget{MaxSteps: 1 << 40, MaxEvents: 1 << 40})
			k.Run(150)
			k.SetBudget(Budget{MaxEvents: k.Events() + 37})
			k.Run(1 << 40)
			return k.Exhausted()
		}, "sim: watchdog at t=168: event budget exceeded (363 > 362): livelock suspected (steps=254 events=363 queue=8) | tail 48 seq 378..530 4bded5987378b6d2"},
		{"set inside an event", func(k *Kernel) *BudgetExceeded {
			pinWorkload(k, false)
			k.SetBudget(Budget{MaxEvents: 1 << 40})
			k.After(2, 200, func() { k.SetBudget(Budget{MaxSteps: k.Counter("steps") + 25}) })
			k.Run(1 << 40)
			return k.Exhausted()
		}, "sim: watchdog at t=215: step budget exceeded (328 > 327): livelock suspected (steps=328 events=470 queue=9) | tail 48 seq 530..680 db380a1a98ec6dcc"},
		{"lowered below the counters", func(k *Kernel) *BudgetExceeded {
			pinWorkload(k, false)
			k.SetBudget(Budget{MaxSteps: 1 << 40})
			k.After(1, 90, func() { k.SetBudget(Budget{MaxSteps: 10}) })
			k.Run(1 << 40)
			return k.Exhausted()
		}, "sim: watchdog at t=90: step budget exceeded (136 > 10): livelock suspected (steps=136 events=192 queue=10) | tail 48 seq 117..271 1645a0c8a078d899"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(3, WithSeed(7))
			wd := tc.run(k)
			if wd == nil {
				t.Fatal("watchdog did not fire")
			}
			h := fnv.New64a()
			h.Write([]byte(wd.Diagnostic()))
			got := fmt.Sprintf("%s | tail %d seq %d..%d %016x", wd.Error(), len(wd.Tail),
				wd.Tail[0].Seq, wd.Tail[len(wd.Tail)-1].Seq, h.Sum64())
			if got != tc.want {
				t.Errorf("verdict moved\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
