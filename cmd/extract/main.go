// Command extract runs the paper's reduction: it builds a black-box dining
// service, extracts a failure detector from it with the witness/subject
// construction, and reports the extracted oracle's quality (mistakes,
// convergence, detection latency) plus the Figure-1 style timeline of one
// monitored pair.
//
// Usage:
//
//	extract -n 3 -box forks -crash 2@6000 -horizon 50000
//
// Boxes: forks (WF-◇WX → extracts ◇P), trap (adversarial WF-◇WX → still
// extracts ◇P), mutex|central (wait-free ℙWX → extracts T, Section 9).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/central"
	"repro/internal/dining/forks"
	"repro/internal/mutex"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		n       = flag.Int("n", 2, "number of monitored processes")
		box     = flag.String("box", "forks", "forks|trap|mutex|central")
		seed    = flag.Int64("seed", 1, "random seed")
		horizon = flag.Int64("horizon", 50000, "virtual-time horizon")
		gst     = flag.Int64("gst", 800, "GST of the delay policy")
		crashes = flag.String("crash", "", "comma list of proc@time")
		era     = flag.Int64("era", 3000, "mistake era for the trap box")
	)
	flag.Parse()
	if *n < 2 {
		fmt.Fprintln(os.Stderr, "extract: need at least 2 processes")
		os.Exit(2)
	}

	// Reserve coordinator processes for the centralized boxes.
	coordCount := 0
	if *box == "trap" || *box == "central" {
		coordCount = 2
	}
	log := &trace.Log{}
	k := sim.NewKernel(*n+coordCount,
		sim.WithSeed(*seed),
		sim.WithTracer(log),
		sim.WithDelay(sim.GSTDelay{GST: sim.Time(*gst), PreMax: 120, PostMax: 8}),
	)
	var coords []sim.ProcID
	for i := 0; i < coordCount; i++ {
		coords = append(coords, sim.ProcID(*n+i))
	}

	var factory dining.Factory
	class := "◇P"
	switch *box {
	case "forks":
		oracle := detector.NewHeartbeat(k, "native", detector.HeartbeatConfig{})
		factory = forks.Factory(oracle, forks.Config{})
	case "trap":
		factory = central.Factory(coords, sim.Time(*era))
	case "mutex":
		// Model-true stand-in for the T+S composition the FTME needs.
		factory = mutex.Factory(detector.Perfect{K: k})
		class = "T"
	case "central":
		factory = central.Factory(coords, 0)
		class = "T"
	default:
		fmt.Fprintf(os.Stderr, "extract: unknown box %q\n", *box)
		os.Exit(2)
	}

	procs := make([]sim.ProcID, *n)
	for i := range procs {
		procs[i] = sim.ProcID(i)
	}
	ext := core.NewExtractor(k, procs, factory, "x")

	for _, spec := range strings.Split(*crashes, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		parts := strings.SplitN(spec, "@", 2)
		p, err1 := strconv.Atoi(parts[0])
		at, err2 := strconv.ParseInt(parts[1], 10, 64)
		if len(parts) != 2 || err1 != nil || err2 != nil || p < 0 || p >= *n {
			fmt.Fprintf(os.Stderr, "extract: bad crash spec %q\n", spec)
			os.Exit(2)
		}
		k.CrashAt(sim.ProcID(p), sim.Time(at))
	}

	end := k.Run(sim.Time(*horizon))

	// One report carries the per-pair table and the completeness verdict.
	pairs := checker.AllPairs(procs)
	rep, completeness := checker.StrongCompleteness(log, "x", pairs, true, end*3/4)

	fmt.Printf("extraction: box=%s class=%s n=%d seed=%d end=%d\n\n", *box, class, *n, *seed, end)
	fmt.Println("pair   final     suspicions")
	for _, s := range rep.Pairs {
		out := "trusts  "
		if ext.Suspected(s.P, s.Q) {
			out = "suspects"
		}
		fmt.Printf("%d->%d   %s  %d\n", s.P, s.Q, out, s.Suspicions)
	}

	// Any failed property check flips the exit status to non-zero, so scripted
	// extractions can gate on the oracle's class contract.
	failed := false
	fmt.Println()
	if class == "T" {
		if _, err := checker.TrustingAccuracy(log, "x", pairs, true, end*3/4); err != nil {
			fmt.Println("trusting accuracy: FAIL:", err)
			failed = true
		} else {
			fmt.Println("trusting accuracy: ok")
		}
	} else {
		if _, err := checker.EventualStrongAccuracy(log, "x", pairs, true, end*3/4); err != nil {
			fmt.Println("eventual strong accuracy: FAIL:", err)
			failed = true
		} else {
			fmt.Println("eventual strong accuracy: ok")
		}
	}
	if completeness != nil {
		fmt.Println("strong completeness: FAIL:", completeness)
		failed = true
	} else {
		fmt.Println("strong completeness: ok")
	}
	if len(rep.DetectionLatency) > 0 {
		fmt.Println("detection latency:", checker.SortedLatencies(rep.DetectionLatency))
	}

	// Figure-1 style timeline for the pair (0, 1).
	if m := ext.Monitor(0, 1); m != nil {
		eat := log.Sessions("eating")
		rows := []trace.TimelineRow{
			{Label: "p.w0", Intervals: eat[trace.SessionKey{Inst: m.Tables()[0].Name(), P: 0}]},
			{Label: "p.w1", Intervals: eat[trace.SessionKey{Inst: m.Tables()[1].Name(), P: 0}]},
			{Label: "q.s0", Intervals: eat[trace.SessionKey{Inst: m.Tables()[0].Name(), P: 1}]},
			{Label: "q.s1", Intervals: eat[trace.SessionKey{Inst: m.Tables()[1].Name(), P: 1}]},
		}
		span := sim.Time(600)
		fmt.Printf("\npair (0,1) eating sessions, final %d ticks:\n", span)
		fmt.Print(trace.Timeline(rows, end-span, end, 72))
	}
	fmt.Printf("\nmessages sent=%d delivered=%d dropped=%d\n",
		k.Counter("msg.sent"), k.Counter("msg.delivered"), k.Counter("msg.dropped"))
	if failed {
		fmt.Fprintln(os.Stderr, "extract: property violations detected")
		os.Exit(1)
	}
}
