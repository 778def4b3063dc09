package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rt"
)

// collect is a minimal Tracer.
type collect struct{ recs []Record }

func (c *collect) Trace(r Record) { c.recs = append(c.recs, r) }

// TestDeliveryIsReliable: every one of many messages to a live process
// arrives under every delay policy, and under the uniform one some overtake
// others: the channels are reliable but not FIFO.
func TestDeliveryIsReliable(t *testing.T) {
	policies := map[string]DelayPolicy{
		"fixed":   FixedDelay{D: 3},
		"uniform": UniformDelay{Min: 1, Max: 50},
		"gst":     GSTDelay{GST: 500, PreMax: 200, PostMax: 5},
	}
	for name, pol := range policies {
		t.Run(name, func(t *testing.T) {
			k := NewKernel(2, WithDelay(pol), WithSeed(9))
			got, last, overtaken := 0, -1, false
			k.Handle(1, "x", func(m Message) {
				overtaken = overtaken || m.Payload.(int) < last
				got, last = got+1, m.Payload.(int)
			})
			const n = 500
			for i := 0; i < n; i++ {
				k.Send(0, 1, "x", i)
			}
			k.Run(100000)
			if got != n {
				t.Fatalf("%s: delivered %d of %d", name, got, n)
			}
			if name == "uniform" && !overtaken {
				t.Fatal("500 messages with random delays arrived in FIFO order; channels should be non-FIFO")
			}
		})
	}
}

// TestIdleQuiescence: with no enabled guards and no messages, the run ends
// before the horizon.
func TestIdleQuiescence(t *testing.T) {
	k := NewKernel(1)
	k.AddAction(0, "never", func() bool { return false }, func() {})
	end := k.Run(1_000_000)
	if end >= 1_000_000 {
		t.Fatalf("kernel did not quiesce: end=%d", end)
	}
}

// TestDeterminism: identical seeds give identical traces; different seeds
// give different schedules.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Record {
		tr := &collect{}
		k := NewKernel(3, WithSeed(seed), WithTracer(tr), WithDelay(UniformDelay{Min: 1, Max: 20}))
		for i := 0; i < 3; i++ {
			p := ProcID(i)
			k.Handle(p, "x", func(m Message) {
				k.Emit(Record{P: p, Kind: "got", Peer: m.From})
				if k.Now() < 500 {
					k.Send(p, (p+1)%3, "x", nil)
				}
			})
		}
		k.Send(0, 1, "x", nil)
		k.Run(1000)
		return tr.recs
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different traces")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// TestDelayPolicies: property — every policy returns delays >= 1, and GST
// delays respect the post-GST bound.
func TestDelayPolicies(t *testing.T) {
	k := NewKernel(1, WithSeed(5))
	rng := k.Rand()
	gst := GSTDelay{GST: 100, PreMax: 500, PostMax: 7}
	prop := func(now int16, from, to uint8) bool {
		n := Time(now)
		if n < 0 {
			n = -n
		}
		for _, pol := range []DelayPolicy{FixedDelay{D: 0}, UniformDelay{Min: -3, Max: 9}, gst} {
			d := pol.Delay(rng, ProcID(from), ProcID(to), n)
			if d < 1 {
				return false
			}
		}
		if n >= 100 {
			if d := gst.Delay(rng, 0, 1, n); d > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestStop aborts a run early.
func TestStop(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.AddAction(0, "inc", func() bool { return true }, func() {
		n++
		if n == 5 {
			k.Stop()
		}
	})
	k.Run(100000)
	if n != 5 {
		t.Fatalf("ran %d actions after Stop, want exactly 5", n)
	}
}

// TestHorizonStopsRun: the run does not execute events past the horizon.
func TestHorizonStopsRun(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.After(0, 500, func() { fired = true })
	end := k.Run(100)
	if fired {
		t.Fatal("event past horizon executed")
	}
	if end != 100 {
		t.Fatalf("end=%d, want horizon 100", end)
	}
}

// TestPortPrefixCounter: per-prefix counters accumulate.
func TestPortPrefixCounter(t *testing.T) {
	k := NewKernel(2)
	k.Handle(1, "dx/0/fork", func(Message) {})
	k.Handle(1, "dx/1/fork", func(Message) {})
	k.Handle(1, "hb", func(Message) {})
	k.Send(0, 1, "dx/0/fork", nil)
	k.Send(0, 1, "dx/1/fork", nil)
	k.Send(0, 1, "hb", nil)
	k.Run(1000)
	if k.Counter("msg.sent:dx") != 2 || k.Counter("msg.sent:hb") != 1 {
		t.Fatalf("prefix counters wrong: %v", k.Counters())
	}
}

// TestCountersPin pins what a lossy run with a crash reports by name: the
// Counters listing, and Counter for each listed name and for names nothing
// counted under. How the kernel keeps
// its counts may change; none of these values may.
func TestCountersPin(t *testing.T) {
	k := NewKernel(3, WithSeed(5))
	if err := (LinkPlan{Name: "pin", Drop: 0.2, Dup: 0.2}).Apply(k); err != nil {
		t.Fatal(err)
	}
	for p := ProcID(0); p < 3; p++ {
		next := (p + 1) % 3
		k.Handle(p, "dx/a", func(Message) { k.Send(p, next, "dx/b", nil) })
		k.Handle(p, "dx/b", func(Message) {})
		k.Handle(p, "hb", func(Message) {})
		beats := 0
		k.AddAction(p, "beat", func() bool { return beats < 30 }, func() {
			beats++
			k.Send(p, next, "dx/a", nil)
			k.Send(p, next, "hb", nil)
		})
	}
	k.CrashAt(2, 40)
	k.Run(1000)

	const want = "link.dropped=53 link.duped=23 msg.delivered=154 " +
		"msg.dropped=87 msg.dropped.crash=34 msg.dropped.link=53 msg.sent=218 " +
		"msg.sent:dx=138 msg.sent:hb=80 steps=80"
	got := k.Counters()
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("Counters moved\n got  %s\n want %s", s, want)
	}
	for _, line := range got {
		name, v, _ := strings.Cut(line, "=")
		if c := k.Counter(name); fmt.Sprint(c) != v {
			t.Errorf("Counter(%q) = %d, Counters lists %s", name, c, v)
		}
	}
	for _, name := range []string{"msg.sent:none", "transport.sent", "yields"} {
		if c := k.Counter(name); c != 0 {
			t.Errorf("Counter(%q) = %d, want 0", name, c)
		}
	}
}

// TestKernelCountsAllocFree: a steady-state send, delivery and step counts
// without allocating, and reading a counter by name allocates nothing either.
func TestKernelCountsAllocFree(t *testing.T) {
	k := NewKernel(2, WithDelay(FixedDelay{D: 1}), WithStepJitter(1))
	x := rt.PortOf("x/ping")
	pending := false
	k.Handle(1, x, func(Message) { pending = true })
	k.AddAction(1, "ack", func() bool { return pending }, func() { pending = false })
	round := func() {
		k.Send(0, 1, x, nil)
		k.Run(k.Now() + 4)
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a send-deliver-step round allocated %v times, want 0", allocs)
	}
	if k.Counter("msg.delivered") != 202 || k.Counter("steps") != 202 {
		t.Fatalf("counters after 202 rounds: %v", k.Counters())
	}
	var sent int64
	read := func() { sent = k.Counter("msg.sent") + k.Counter("msg.sent:x") + k.Counter("no.such") }
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("Counter allocated %v times, want 0", allocs)
	}
	if sent != 2*202 {
		t.Fatalf("msg.sent + msg.sent:x = %d, want %d", sent, 2*202)
	}
}

// TestPartitionDelay: cross-side messages are delivered only after the
// heal; same-side traffic flows normally; nothing is lost.
func TestPartitionDelay(t *testing.T) {
	part := PartitionDelay{
		Base: FixedDelay{D: 2},
		Side: map[ProcID]bool{2: true},
		Heal: 500,
	}
	k := NewKernel(3, WithDelay(part), WithSeed(1))
	var crossAt, sameAt Time = -1, -1
	k.Handle(2, "x", func(Message) { crossAt = k.Now() })
	k.Handle(1, "x", func(Message) { sameAt = k.Now() })
	k.Send(0, 2, "x", nil) // crosses the partition
	k.Send(0, 1, "x", nil) // stays on the majority side
	k.Run(2000)
	if sameAt != 2 {
		t.Fatalf("same-side delivery at %d, want 2", sameAt)
	}
	if crossAt < 500 {
		t.Fatalf("cross-partition delivery at %d, before heal", crossAt)
	}
	if crossAt == -1 {
		t.Fatal("cross-partition message lost: channels must stay reliable")
	}
}
