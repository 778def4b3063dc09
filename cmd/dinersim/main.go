// Command dinersim runs one dining-philosophers simulation and prints a run
// report: eating sessions, exclusion violations, starvation, fairness and
// message counts.
//
// Usage:
//
//	dinersim -topology ring -n 5 -table forks -crash 2@6000 -horizon 40000
//	dinersim -table token -loss 0.3 -dup 0.1 -reorder 16
//
// Tables: forks (WF-◇WX, heartbeat-◇P driven), token (WF-◇WX, circulating
// token), fair (forks with Fair: 2, eventually 2-fair), mutex (wait-free
// ℙWX with the model-true T+S stand-in), perfect (centralized ℙWX), trap
// (adversarial WF-◇WX with a mistake era).
//
// -loss/-dup/-reorder weaken the channels to fair-lossy links; when any of
// them is non-zero the reliable transport (internal/transport) is enabled
// automatically so the table still sees the channel axioms it assumes.
// Pass -transport=false to run the table over raw lossy links instead, or
// -transport to add the transport's ack/retransmit machinery to a reliable
// run.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/central"
	"repro/internal/dining/forks"
	"repro/internal/dining/token"
	"repro/internal/graph"
	"repro/internal/mutex"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
	transportpkg "repro/internal/transport"
)

func main() {
	var (
		topology = flag.String("topology", "ring", "ring|clique|path|star|grid|pair|random")
		n        = flag.Int("n", 5, "number of diners")
		table    = flag.String("table", "forks", "forks|token|fair|mutex|perfect|trap")
		seed     = flag.Int64("seed", 1, "random seed")
		horizon  = flag.Int64("horizon", 40000, "virtual-time horizon")
		gst      = flag.Int64("gst", 800, "global stabilization time of the delay policy")
		crashes  = flag.String("crash", "", "comma list of proc@time, e.g. 2@6000,0@9000")
		era      = flag.Int64("era", 3000, "mistake era for the trap table")
		csvTrace = flag.String("csvtrace", "", "write the full run trace as CSV to this file")

		loss      = flag.Float64("loss", 0, "per-message drop probability on every link, [0, 1)")
		dup       = flag.Float64("dup", 0, "per-message duplication probability, [0, 1]")
		reorder   = flag.Int64("reorder", 0, "extra per-message delay bound (message reordering)")
		transport = flag.Bool("transport", false, "run over the reliable transport (auto-on with link faults)")
	)
	flag.Parse()
	lossy := *loss != 0 || *dup != 0 || *reorder != 0
	useTransport := *transport || lossy
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "transport" {
			useTransport = *transport // explicit flag wins over the auto-on
		}
	})

	g, err := buildGraph(*topology, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinersim:", err)
		os.Exit(2)
	}

	// Centralized tables need an extra coordinator process.
	extra := 0
	if *table == "perfect" || *table == "trap" {
		extra = 1
	}
	log := &trace.Log{}
	k := sim.NewKernel(g.N()+extra,
		sim.WithSeed(*seed),
		sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: sim.Time(*gst), PreMax: 120, PostMax: 8}),
	)

	// Protocol modules are wired on net: the kernel itself, or the
	// transport over it.
	var net rt.Runtime = k
	var tr *transportpkg.Reliable
	if useTransport {
		tr = transportpkg.Enable(k, "rt", transportpkg.Config{})
		net = tr
	}
	if lossy {
		plan := sim.LinkPlan{Name: "cli", Drop: *loss, Dup: *dup, ReorderMax: sim.Time(*reorder)}
		if err := plan.Apply(k); err != nil {
			fmt.Fprintln(os.Stderr, "dinersim:", err)
			os.Exit(2)
		}
	}

	// On a lossy network a dropped heartbeat arrives one retransmission
	// timeout late; the oracle's timeout must dominate that or every loss is
	// a false suspicion (see internal/chaos.buildBox).
	hbCfg := detector.HeartbeatConfig{}
	if lossy {
		hbCfg = detector.HeartbeatConfig{Timeout: 240, Bump: 160}
	}

	var tbl dining.Table
	switch *table {
	case "forks":
		oracle := detector.NewHeartbeat(net, "hb", hbCfg)
		tbl = forks.New(net, g, "dine", oracle, forks.Config{})
	case "token":
		oracle := detector.NewHeartbeat(net, "hb", hbCfg)
		tbl = token.New(net, g, "dine", oracle, token.Config{})
	case "fair":
		oracle := detector.NewHeartbeat(net, "hb", hbCfg)
		tbl = forks.New(net, g, "dine", oracle, forks.Config{Fair: 2})
	case "mutex":
		// Model-true stand-in for the T+S composition the FTME needs (see
		// the mutex package comment).
		tbl = mutex.New(net, g, "dine", detector.Perfect{K: k})
	case "perfect":
		tbl = central.New(net, g, "dine", sim.ProcID(g.N()), 0)
	case "trap":
		tbl = central.New(net, g, "dine", sim.ProcID(g.N()), sim.Time(*era))
	default:
		fmt.Fprintf(os.Stderr, "dinersim: unknown table %q\n", *table)
		os.Exit(2)
	}

	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 120, EatMin: 5, EatMax: 40,
		})
	}
	for _, spec := range strings.Split(*crashes, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		parts := strings.SplitN(spec, "@", 2)
		p, err1 := strconv.Atoi(parts[0])
		at, err2 := strconv.ParseInt(parts[1], 10, 64)
		if len(parts) != 2 || err1 != nil || err2 != nil || !g.Has(sim.ProcID(p)) {
			fmt.Fprintf(os.Stderr, "dinersim: bad crash spec %q\n", spec)
			os.Exit(2)
		}
		k.CrashAt(sim.ProcID(p), sim.Time(at))
	}

	// Ctrl-C ends the simulation at the current virtual time instead of
	// killing the process: the full report below (and -csvtrace) still
	// covers everything that ran, and the exit status marks the run partial.
	var interrupted atomic.Bool
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "dinersim: interrupted, flushing partial report")
		signal.Stop(sig)
		interrupted.Store(true)
	}()
	end, _ := k.RunUntil(sim.Time(*horizon), func() bool { return interrupted.Load() })

	if interrupted.Load() {
		fmt.Printf("run: table=%s %v seed=%d end=%d (INTERRUPTED before horizon %d)\n\n",
			*table, g, *seed, end, *horizon)
	} else {
		fmt.Printf("run: table=%s %v seed=%d end=%d\n\n", *table, g, *seed, end)
	}
	eat := log.Sessions("eating")
	fmt.Println("diner  meals  crashed")
	for _, p := range g.Nodes() {
		meals := len(eat[trace.SessionKey{Inst: "dine", P: p}])
		crashed := "-"
		if k.Crashed(p) {
			crashed = fmt.Sprintf("t=%d", k.CrashTime(p))
		}
		fmt.Printf("%5d  %5d  %s\n", p, meals, crashed)
	}

	// Violations against the table's contract drive the exit status: perpetual
	// exclusion for the ℙWX tables, an exclusive suffix (convergence by 3/4 of
	// the run) for the ◇WX ones — raw whole-run exclusion counts are reported
	// but are not failures for ◇WX tables, whose early mistakes are allowed.
	failed := false
	rep := checker.Exclusion(log, g, "dine", end)
	fmt.Printf("\nexclusion violations: %d", len(rep.Violations))
	if rep.LastViolation != sim.Never {
		fmt.Printf(" (last ends t=%d)", rep.LastViolation)
	}
	fmt.Println()
	if *table == "perfect" || *table == "mutex" {
		if _, err := checker.PerpetualWeakExclusion(log, g, "dine", end); err != nil {
			fmt.Println("perpetual weak exclusion: FAIL:", err)
			failed = true
		} else {
			fmt.Println("perpetual weak exclusion: ok")
		}
	} else {
		if _, err := checker.EventualWeakExclusion(log, g, "dine", end*3/4, end); err != nil {
			fmt.Println("eventual weak exclusion: FAIL:", err)
			failed = true
		} else {
			fmt.Println("eventual weak exclusion: ok (converged by t=", end*3/4, ")")
		}
	}
	if starved := checker.WaitFreedom(log, "dine", end-3000, end); len(starved) > 0 {
		fmt.Println("STARVATION:")
		for _, s := range starved {
			fmt.Println("  ", s)
		}
		failed = true
	} else {
		fmt.Println("wait-freedom: ok (no starvation)")
	}
	if over := checker.KFairness(log, g, "dine", 2, end/2, end); len(over) > 0 {
		fmt.Printf("suffix overtakes beyond 2: %d (first: %v)\n", len(over), over[0])
	} else {
		fmt.Println("suffix 2-fairness: ok")
	}
	if resp := checker.ResponseTimes(log, "dine", end/2); resp.Served > 0 {
		fmt.Printf("suffix wait (hungry->eating): min=%d mean=%.1f p99=%d max=%d over %d meals\n",
			resp.Min, resp.Mean, resp.P99, resp.Max, resp.Served)
	}
	if len(log.CrashTimes()) > 0 {
		loc := checker.FailureLocality(log, g, "dine", end-3000, end)
		if loc.Locality < 0 {
			fmt.Println("failure locality: none (no correct diner starves)")
		} else {
			fmt.Printf("failure locality: %d (starved at distances %v)\n", loc.Locality, loc.Starved)
		}
	}
	fmt.Printf("\nmessages sent=%d delivered=%d dropped=%d (crash=%d link=%d) steps=%d\n",
		k.Counter("msg.sent"), k.Counter("msg.delivered"), k.Counter("msg.dropped"),
		k.Counter("msg.dropped.crash"), k.Counter("msg.dropped.link"), k.Counter("steps"))
	if useTransport {
		fmt.Printf("transport sent=%d delivered=%d retransmit=%d dup=%d acks=%d\n",
			tr.Counter("transport.sent"), tr.Counter("transport.delivered"),
			tr.Counter("transport.retransmit"), tr.Counter("transport.dup"), tr.Counter("transport.acks"))
	}

	// Eating timeline of the final stretch.
	var rows []trace.TimelineRow
	for _, p := range g.Nodes() {
		rows = append(rows, trace.TimelineRow{
			Label:     fmt.Sprintf("diner %d", p),
			Intervals: eat[trace.SessionKey{Inst: "dine", P: p}],
		})
	}
	span := sim.Time(2000)
	if end < span {
		span = end
	}
	fmt.Printf("\neating sessions, final %d ticks:\n%s", span, trace.Timeline(rows, end-span, end, 64))

	if *csvTrace != "" {
		f, err := os.Create(*csvTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dinersim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := log.WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, "dinersim:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d records)\n", *csvTrace, log.Len())
	}
	if failed {
		fmt.Fprintln(os.Stderr, "dinersim: property violations detected")
		os.Exit(1)
	}
	if interrupted.Load() {
		fmt.Fprintln(os.Stderr, "dinersim: run interrupted before the horizon")
		os.Exit(130)
	}
}

func buildGraph(topology string, n int, seed int64) (*graph.Graph, error) {
	if topology == "random" {
		k := sim.NewKernel(1, sim.WithSeed(seed))
		return graph.Random(n, 0.4, k.Rand()), nil
	}
	return graph.Named(topology, n)
}
