// Benchmarks regenerating every experiment in EXPERIMENTS.md (one bench per
// table/figure), plus micro-benchmarks of the simulation substrate. Run:
//
//	go test -bench=. -benchmem
//
// The E* benches fail the run if an experiment observes a property
// violation, so `go test -bench` doubles as the reproduction check.
package repro_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// requireOk fails the benchmark if the experiment reported violations.
func requireOk(b *testing.B, t *experiment.Table) {
	b.Helper()
	if !t.Ok() {
		b.Fatalf("%s failed:\n%s", t.ID, t.Render())
	}
}

func BenchmarkE1_Figure1Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E1Figure1(int64(i)+1))
	}
}

func BenchmarkE2_StrongCompleteness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E2Completeness([]int64{int64(i) + 1}, []int{2, 3}))
	}
}

func BenchmarkE3_EventualAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E3Accuracy([]int64{int64(i) + 1}, []sim.Time{400, 1500}))
	}
}

func BenchmarkE4_Invariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E4Invariants([]int64{int64(i) + 1}))
	}
}

func BenchmarkE5_Progress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E5Progress([]int64{int64(i) + 1}))
	}
}

func BenchmarkE6_FlawedConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E6Flawed(int64(i)+1, []sim.Time{10000, 20000}))
	}
}

func BenchmarkE7_EventualFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E7Fairness([]int64{int64(i) + 1}))
	}
}

func BenchmarkE8_TrustingExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E8Trusting([]int64{int64(i) + 1}))
	}
}

func BenchmarkE9_SufficiencySanity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E9Sufficiency([]int64{int64(i) + 1}))
	}
}

func BenchmarkE10_Applications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E10Applications(int64(i)+1))
	}
}

func BenchmarkE11_Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E11Scaling(int64(i)+1, []int{2, 3, 4}))
	}
}

func BenchmarkE12_Downstream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E12Downstream([]int64{int64(i) + 1}))
	}
}

func BenchmarkE13_Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E13Ablations(int64(i)+1))
	}
}

func BenchmarkE14_Locality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E14Locality(int64(i)+1))
	}
}

func BenchmarkE15_RoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E15RoundTrip([]int64{int64(i) + 1}))
	}
}

func BenchmarkE16_ChaosSoak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E16ChaosSoak(int64(i)+1))
	}
}

func BenchmarkE17_LossyLinks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOk(b, experiment.E17LossyLinks(int64(i)+1))
	}
}

// BenchmarkCampaignParallel measures the parallel sweep runner on the
// 240-run DefaultLinkCampaign (at a reduced horizon so one iteration stays
// in whole seconds): the same campaign executes once sequentially and once
// at GOMAXPROCS workers, the reports are asserted identical, and the
// sequential/parallel wall-clock ratio lands in the "speedup" metric. On a
// single-CPU machine the expected speedup is ~1.0; the metric exists to
// track scaling on wider hardware in the bench trajectory.
func BenchmarkCampaignParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	var seqTotal, parTotal time.Duration
	for i := 0; i < b.N; i++ {
		c := chaos.DefaultLinkCampaign(6000)
		c.Parallel = 1
		t0 := time.Now()
		seq := c.Run()
		seqTotal += time.Since(t0)
		c.Parallel = workers
		t0 = time.Now()
		par := c.Run()
		parTotal += time.Since(t0)
		if seq.Render() != par.Render() {
			b.Fatalf("parallel report diverged from sequential:\nseq:\n%s\npar:\n%s",
				seq.Render(), par.Render())
		}
	}
	b.ReportMetric(seqTotal.Seconds()/parTotal.Seconds(), "speedup")
	b.ReportMetric(float64(workers), "workers")
}

// ---- Substrate micro-benchmarks ----

// BenchmarkKernelEvents measures raw event throughput: two processes
// ping-ponging a message.
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.NewKernel(2, sim.WithDelay(sim.FixedDelay{D: 1}))
	x := rt.PortOf("x")
	count := 0
	k.Handle(0, x, func(m sim.Message) { count++; k.Send(0, 1, x, nil) })
	k.Handle(1, x, func(m sim.Message) { count++; k.Send(1, 0, x, nil) })
	k.Send(0, 1, x, nil)
	b.ResetTimer()
	k.Run(sim.Time(b.N) * 2)
	b.ReportMetric(float64(count)/float64(b.N), "deliveries/op")
}

// BenchmarkKernelSteps measures guarded-action scheduling throughput.
func BenchmarkKernelSteps(b *testing.B) {
	k := sim.NewKernel(1, sim.WithStepJitter(1))
	n := 0
	k.AddAction(0, "inc", func() bool { return true }, func() { n++ })
	b.ResetTimer()
	k.Run(sim.Time(b.N))
	if n == 0 {
		b.Fatal("no steps")
	}
}

// BenchmarkForksTable measures dining throughput on a ring of 5 (meals
// completed per simulated 10k ticks).
func BenchmarkForksTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log := &trace.Log{}
		g := graph.Ring(5)
		k := sim.NewKernel(5, sim.WithSeed(int64(i)+1), sim.WithTracer(log),
			sim.WithDelay(sim.UniformDelay{Min: 1, Max: 8}))
		oracle := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
		tbl := forks.New(k, g, "fk", oracle, forks.Config{})
		for _, p := range g.Nodes() {
			dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
				ThinkMin: 5, ThinkMax: 30, EatMin: 3, EatMax: 10,
			})
		}
		end := k.Run(10000)
		meals := 0
		for _, ivs := range log.Sessions("eating") {
			meals += len(ivs)
		}
		if meals == 0 {
			b.Fatal("no meals")
		}
		b.ReportMetric(float64(meals), "meals/10kticks")
		_ = end
	}
}

// BenchmarkPairMonitor measures one full reduction run (30k ticks over the
// forks box) including trace collection.
func BenchmarkPairMonitor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log := &trace.Log{}
		k := sim.NewKernel(2, sim.WithSeed(int64(i)+1), sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
		oracle := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
		m := core.NewPairMonitor(k, 0, 1, forks.Factory(oracle, forks.Config{}), "xp")
		k.Run(30000)
		if m.Suspect() {
			b.Fatal("monitor did not converge")
		}
	}
}

// BenchmarkHeartbeatOracle measures the native ◇P alone at n=4.
func BenchmarkHeartbeatOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(4, sim.WithSeed(int64(i)+1),
			sim.WithDelay(sim.GSTDelay{GST: 600, PreMax: 80, PostMax: 8}))
		hb := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
		k.Run(30000)
		if hb.Suspected(0, 1) {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkChaosCampaign is the kernel under the load the proof harness puts
// on it: the 240 specs of the default campaign (bench/'s sim_campaign
// horizon) run one after another through chaos.Execute — a couple of dozen
// events in flight, heartbeats, dining boxes, driver timers, trace and
// checkers — where BenchmarkKernelEvents keeps two events in the queue and
// so cannot see what the queue costs. ns/event divides by the kernels' own
// event counts.
func BenchmarkChaosCampaign(b *testing.B) {
	specs := chaos.DefaultCampaign(15000).Specs()
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			r := chaos.Execute(spec)
			if r.Failed() {
				b.Fatalf("%s: [%s] %s", spec.ID(), r.Category, r.First())
			}
			events += r.Events
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkCheckerExclusion measures trace analysis over a dense run.
func BenchmarkCheckerExclusion(b *testing.B) {
	log := &trace.Log{}
	g := graph.Clique(4)
	k := sim.NewKernel(4, sim.WithSeed(1), sim.WithTracer(log),
		sim.WithDelay(sim.UniformDelay{Min: 1, Max: 8}))
	oracle := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
	tbl := forks.New(k, g, "fk", oracle, forks.Config{})
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 5, ThinkMax: 30, EatMin: 3, EatMax: 10,
		})
	}
	end := k.Run(30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := checker.Exclusion(log, g, "fk", end)
		_ = rep
	}
	b.ReportMetric(float64(log.Len()), "records")
}
