package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The kernel queues a step only when one of its process's guards holds and
// lets the others lapse unqueued (Kernel.wake). These tests run each
// program twice, with every step queued and with the elision, and require
// everything a run shows to be the same: the trace, where and when it
// ended, the event count, the counters and the watchdog's verdict.

// bothWays runs run with the elision off, then on, and returns the two
// results.
func bothWays[T any](run func() T) (off, on T) {
	restore := sim.SetElision(false)
	off = run()
	restore()
	return off, run()
}

// outcome is what one kernel run shows. queued is apart: it is what the
// elision changes.
type outcome struct {
	Hash     uint64
	Records  int
	End      sim.Time
	Met      bool
	Events   int64
	Counters []string
	Watchdog *sim.BudgetExceeded
	queued   int64
}

func observe(k *sim.Kernel, log *trace.Log, end sim.Time, met bool) outcome {
	return outcome{
		Hash: log.Hash(), Records: log.Len(), End: end, Met: met,
		Events: k.Events(), Counters: k.Counters(), Watchdog: k.Exhausted(),
		queued: k.Queued(),
	}
}

// forkRing wires a forks table over a heartbeat detector on an n-ring, each
// diner driven by a synthetic client, and returns the kernel, its trace and
// the table.
func forkRing(n int, seed int64, drive dining.DriverConfig, opts ...sim.Option) (*sim.Kernel, *trace.Log, *forks.Table) {
	log := &trace.Log{}
	k := sim.NewKernel(n, append([]sim.Option{sim.WithSeed(seed), sim.WithTracer(log)}, opts...)...)
	g := graph.Ring(n)
	tbl := forks.New(k, g, "fk", detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{}), forks.Config{})
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), drive)
	}
	return k, log, tbl
}

var busy = dining.DriverConfig{ThinkMin: 5, ThinkMax: 40, EatMin: 3, EatMax: 12}

// amplify adds a port on which every process answers a message with two to
// its ring successor, so the queue grows without bound from the first one,
// sent at t=at.
func amplify(k *sim.Kernel, at sim.Time) {
	port := rt.PortOf("amp")
	n := sim.ProcID(k.N())
	for p := sim.ProcID(0); p < n; p++ {
		k.Handle(p, port, func(sim.Message) {
			k.Send(p, (p+1)%n, port, nil)
			k.Send(p, (p+1)%n, port, nil)
		})
	}
	k.After(0, at, func() { k.Send(0, 1, port, nil) })
}

func TestElisionIsInvisibleOnKernelRuns(t *testing.T) {
	stopped := func(o []outcome) bool { return o[len(o)-1].Watchdog != nil }
	cases := []struct {
		name string
		run  func() []outcome
		// shows reports whether the run shows what the case is for (a
		// watchdog stop, an early end, a met condition).
		shows func([]outcome) bool
	}{
		{"forks ring to the horizon", func() []outcome {
			k, log, _ := forkRing(5, 11, busy)
			return []outcome{observe(k, log, k.Run(6000), false)}
		}, nil},
		{"coarse step gaps", func() []outcome {
			k, log, _ := forkRing(4, 12, busy, sim.WithStepJitter(40))
			return []outcome{observe(k, log, k.Run(6000), false)}
		}, nil},
		{"quiescent", func() []outcome {
			// No detector traffic and a meal cap: the run ends on its own,
			// on whatever event comes last, an idle step included.
			log := &trace.Log{}
			k := sim.NewKernel(4, sim.WithSeed(5), sim.WithTracer(log))
			g := graph.Ring(4)
			tbl := forks.New(k, g, "fk", &detector.Scripted{}, forks.Config{})
			for _, p := range g.Nodes() {
				dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{ThinkMin: 5, ThinkMax: 40, EatMin: 3, EatMax: 12, Meals: 4})
			}
			return []outcome{observe(k, log, k.Run(1_000_000), false)}
		}, func(o []outcome) bool { return o[0].End < 1_000_000 }},
		{"crashes", func() []outcome {
			k, log, tbl := forkRing(5, 13, busy)
			k.CrashAt(1, 900)
			d := tbl.Diner(3)
			k.CrashWhen(3, "mid-meal", func() bool { return d.State() == dining.Eating && k.Crashed(1) })
			return []outcome{observe(k, log, k.Run(6000), false)}
		}, nil},
		{"event budget", func() []outcome {
			k, log, _ := forkRing(5, 14, busy)
			k.SetBudget(sim.Budget{MaxEvents: 1500})
			return []outcome{observe(k, log, k.Run(20000), false)}
		}, stopped},
		{"step budget", func() []outcome {
			k, log, _ := forkRing(5, 15, busy)
			k.SetBudget(sim.Budget{MaxSteps: 300})
			return []outcome{observe(k, log, k.Run(20000), false)}
		}, stopped},
		{"queue budget", func() []outcome {
			k, log, _ := forkRing(5, 20, busy)
			amplify(k, 700)
			k.SetBudget(sim.Budget{MaxQueue: 300})
			return []outcome{observe(k, log, k.Run(1<<40), false)}
		}, stopped},
		{"budget set between runs", func() []outcome {
			k, log, _ := forkRing(5, 16, busy)
			o := []outcome{observe(k, log, k.Run(777), false)}
			k.SetBudget(sim.Budget{MaxEvents: k.Events() + 41})
			return append(o, observe(k, log, k.Run(20000), false))
		}, stopped},
		{"RunUntil on diner state", func() []outcome {
			k, log, tbl := forkRing(5, 17, busy)
			d := tbl.Diner(2)
			var o []outcome
			for _, s := range []dining.State{dining.Eating, dining.Exiting, dining.Eating} {
				end, met := k.RunUntil(6000, func() bool { return d.State() == s })
				o = append(o, observe(k, log, end, met))
				wakeAll(k) // wiring between runs draws a step where none is pending
			}
			end, met := k.RunUntil(6000, func() bool { return false })
			return append(o, observe(k, log, end, met))
		}, func(o []outcome) bool { return o[0].Met && o[1].Met && o[2].Met && o[0].End < o[1].End }},
		{"hungry from outside between runs", func() []outcome {
			// Diner 0 has no client; the caller makes it hungry between two
			// runs, with its neighbors' heartbeats keeping it awake.
			log := &trace.Log{}
			k := sim.NewKernel(4, sim.WithSeed(18), sim.WithTracer(log))
			g := graph.Ring(4)
			tbl := forks.New(k, g, "fk", detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{}), forks.Config{})
			for _, p := range g.Nodes()[1:] {
				dining.Drive(k, p, tbl.Diner(p), busy)
			}
			o := []outcome{observe(k, log, k.Run(1003), false)}
			tbl.Diner(0).Hungry()
			return append(o, observe(k, log, k.Run(3000), false))
		}, nil},
		{"panic mid-run", func() []outcome {
			k, log, _ := forkRing(5, 21, busy)
			k.After(2, 1234, func() { panic("boom") })
			end, fail := k.RunProtected(6000)
			return []outcome{observe(k, log, end, fail != nil && fail.Panic != nil)}
		}, func(o []outcome) bool { return o[0].Met }},
		{"state changed between runs", func() []outcome {
			// p0's timer wakes it with nothing to do just before the first
			// run's horizon; the caller enables its action before the next.
			log := &trace.Log{}
			k := sim.NewKernel(1, sim.WithSeed(22), sim.WithTracer(log), sim.WithStepJitter(20))
			ready := false
			k.AddAction(0, "go", func() bool { return ready }, func() {
				ready = false
				k.Emit(sim.Record{P: 0, Kind: "mark", Peer: -1, Note: "go"})
			})
			var tick func()
			tick = func() { k.After(0, 50, tick) }
			k.After(0, 50, tick)
			o := []outcome{observe(k, log, k.Run(250), false)}
			ready = true
			return append(o, observe(k, log, k.Run(1000), false))
		}, nil},
		{"two runs, stopped in between", func() []outcome {
			k, log, tbl := forkRing(5, 19, busy)
			tbl.Diner(1).OnChange(func(s dining.State) {
				if s == dining.Eating {
					k.Stop()
				}
			})
			o := []outcome{observe(k, log, k.Run(6000), false)}
			// A stopped kernel runs one event per Run.
			for i := 0; i < 30; i++ {
				wakeAll(k)
				o = append(o, observe(k, log, k.Run(6000), false))
			}
			return o
		}, nil},
	}
	var events, queued int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off, on := bothWays(tc.run)
			last := len(on) - 1
			if o := off[last]; o.queued != o.Events {
				t.Errorf("with every step queued, %d of %d events went through the queue", o.queued, o.Events)
			}
			events, queued = events+on[last].Events, queued+on[last].queued
			for i := range off {
				off[i].queued, on[i].queued = 0, 0
			}
			if !reflect.DeepEqual(off, on) {
				t.Errorf("the elision changed the run\n off %+v\n on  %+v", off, on)
			}
			if tc.shows != nil && !tc.shows(off) {
				t.Errorf("the run does not show what the case is for: %+v", off)
			}
		})
	}
	if queued >= events {
		t.Errorf("the elision kept no step out of the queue: %d of %d events queued", queued, events)
	}
}

// wakeAll adds an action that never runs at every process, waking each.
func wakeAll(k *sim.Kernel) {
	for p := 0; p < k.N(); p++ {
		k.AddAction(sim.ProcID(p), "never", func() bool { return false }, func() {})
	}
}

// verdict is what a chaos run shows.
type verdict struct {
	End        sim.Time
	Events     int64
	Hash       uint64
	Category   string
	Violations []string
	Watchdog   *sim.BudgetExceeded
}

func verdictOf(r *chaos.Result) verdict {
	v := verdict{End: r.End, Events: r.Events, Hash: r.TraceHash, Category: r.Category, Violations: r.Violations}
	if r.Failure != nil {
		v.Watchdog = r.Failure.Watchdog
	}
	return v
}

func TestElisionIsInvisibleOnCampaigns(t *testing.T) {
	campaigns := map[string][]chaos.Spec{"default": chaos.DefaultCampaign(15000).Specs()}
	if !testing.Short() && !raceEnabled {
		campaigns["link"] = chaos.DefaultLinkCampaign(15000).Specs()
	}
	if raceEnabled {
		// Every eighth spec: each box, topology and fault plan still shows.
		var sample []chaos.Spec
		for i, spec := range campaigns["default"] {
			if i%8 == 0 {
				sample = append(sample, spec)
			}
		}
		campaigns["default"] = sample
	}
	// E16's budget-starved run: the watchdog stops it on an exact event.
	for seed := int64(1); seed <= 3; seed++ {
		campaigns["starved"] = append(campaigns["starved"], chaos.Spec{
			Topology: "ring", N: 4, Box: "forks", Seed: seed, Horizon: 20000,
			Delay:  chaos.DelaySpec{Kind: "fixed", Delay: 4},
			Budget: chaos.BudgetSpec{MaxEvents: 1500},
		})
	}
	for name, specs := range campaigns {
		var events, queued int64
		for _, spec := range specs {
			off, on := bothWays(func() *chaos.Result { return chaos.Execute(spec) })
			if a, b := verdictOf(off), verdictOf(on); !reflect.DeepEqual(a, b) {
				t.Errorf("%s %s: the elision changed the run\n off %+v\n on  %+v", name, spec.ID(), a, b)
			}
			if name == "starved" && off.Category != chaos.CatWatchdog {
				t.Errorf("%s: category %q, want the watchdog's", spec.ID(), off.Category)
			}
			events, queued = events+on.Events, queued+on.Queued
		}
		t.Logf("%s: %d events, %d through the queue", name, events, queued)
		if queued >= events {
			t.Errorf("%s: the elision kept no step out of the queue", name)
		}
	}
}
