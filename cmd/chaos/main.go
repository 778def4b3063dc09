// Command chaos runs fault-injection campaigns over the dining boxes: it
// sweeps (box × topology × size × seed × fault plan) under the full checker
// suite with the kernel watchdog armed, delta-debugs any failure down to a
// minimal JSON repro artifact, and exits non-zero if a compliant box
// violated a property.
//
// Usage:
//
//	chaos                                  # default 240-run campaign
//	chaos -boxes forks,buggy -plans eating # focused sweep
//	chaos -shrink -out repros/             # write shrunk artifacts
//	chaos -replay repros/buggy-eating.json # re-execute one artifact
//	chaos -linkplans loss10,loss30,flaky   # lossy-network sweep (transport on)
//	chaos -loss 0.3 -dup 0.1 -reorder 16   # ad-hoc fair-lossy link shape
//	chaos -parallel 1                      # force sequential execution
//	chaos -live -seeds 7                   # live-runtime runs: real goroutines,
//	                                       # wall-clock faults, crash/restart
//	chaos -live -liveplan plan.json        # live runs under a shared link plan
//
// Campaign runs fan out over -parallel workers (default GOMAXPROCS). Runs
// are independent and individually deterministic, and results are aggregated
// in sweep order, so the report — including -v output, failure lists, and
// shrunk repros — is byte-identical at any worker count.
//
// Link faults (-loss/-dup/-reorder or the named -linkplans shapes) weaken the
// channels to fair-lossy links; the reliable transport is enabled
// automatically whenever link faults are present (override with -transport).
//
// Boxes: forks|token|perfect|trap|fair plus "buggy", the planted bug (forks
// without the ◇P override) that sweeps are expected to catch (its failures
// do not affect the exit status; failing to catch is what -expect-caught
// turns into an error). "fair" (forks with the eventual 2-fairness throttle)
// is not in the default campaign.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/sim"
)

func main() {
	var (
		boxes    = flag.String("boxes", "forks,token,perfect,trap", "comma list of dining boxes (add: fair, buggy)")
		topos    = flag.String("topologies", "ring,clique,star", "comma list of conflict-graph shapes")
		sizes    = flag.String("sizes", "4,6", "comma list of diner counts")
		seeds    = flag.String("seeds", "1,2", "comma list of kernel seeds")
		plans    = flag.String("plans", "none,single,eating,staggered,minority", "comma list of fault-plan shapes")
		horizon  = flag.Int64("horizon", 30000, "virtual-time bound per run")
		shrink   = flag.Bool("shrink", false, "delta-debug each failure to a minimal repro")
		out      = flag.String("out", "", "directory to write shrunk repro artifacts into (implies -shrink)")
		replay   = flag.String("replay", "", "replay one repro artifact instead of running a campaign")
		verbose  = flag.Bool("v", false, "print every run as it finishes")
		expected = flag.Bool("expect-caught", false, "fail if the buggy box is swept but never caught")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for campaign runs (1 = sequential); the report is identical either way")

		liveMode  = flag.Bool("live", false, "run the campaign against live tables (goroutines, wall clock, lossy links) instead of the simulator")
		liveDur   = flag.Duration("live-duration", 6*time.Second, "wall-clock length of each live run")
		livePlan  = flag.String("liveplan", "", "JSON file with the link shape for -live runs (chaos.LinkSpec; same JSON drives the TCP proxy); empty = built-in drops+partition schedule")
		liveBlack = flag.String("live-blackout", "", "replace the per-process crash with a whole-system blackout, as \"at+gap\" durations (e.g. 1500ms+500ms): crash every process at once, restart the full table together")

		loss      = flag.Float64("loss", 0, "per-message drop probability on every link, [0, 1)")
		dup       = flag.Float64("dup", 0, "per-message duplication probability, [0, 1]")
		reorder   = flag.Int64("reorder", 0, "extra per-message delay bound (message reordering)")
		linkplans = flag.String("linkplans", "", "comma list of named link shapes (none|loss10|loss30|dup|reorder|flaky)")
		transport = flag.Bool("transport", true, "run boxes over the reliable transport when link faults are on")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(replayArtifact(*replay))
	}

	if *liveMode {
		os.Exit(liveCampaign(split(*topos), int64List(*seeds), split(*sizes), *liveDur, *livePlan, *liveBlack))
	}

	c := chaos.Campaign{
		Boxes:      split(*boxes),
		Topologies: split(*topos),
		Seeds:      int64List(*seeds),
		Plans:      split(*plans),
		Horizon:    sim.Time(*horizon),
		Delays:     []chaos.DelaySpec{{Kind: "gst", GST: 800, PreMax: 120, PostMax: 8}},
		Shrink:     *shrink || *out != "",
		Parallel:   *parallel,
	}
	for _, s := range split(*sizes) {
		n, err := strconv.Atoi(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: bad size %q\n", s)
			os.Exit(2)
		}
		c.Sizes = append(c.Sizes, n)
	}

	// Link faults: named shapes and/or one ad-hoc shape from -loss/-dup/-reorder.
	for _, name := range split(*linkplans) {
		ls, err := chaos.NamedLinkSpec(name, c.Horizon)
		if err != nil {
			errorf(err)
			os.Exit(2)
		}
		c.Links = append(c.Links, ls)
	}
	if *loss != 0 || *dup != 0 || *reorder != 0 {
		c.Links = append(c.Links, &chaos.LinkSpec{Drop: *loss, Dup: *dup, Reorder: sim.Time(*reorder)})
	}
	anyLossy := false
	for _, ls := range c.Links {
		anyLossy = anyLossy || ls != nil
	}
	c.Transport = anyLossy && *transport

	// Ctrl-C stops the sweep but not the program: in-flight runs finish,
	// the partial report and any shrunk repros are still flushed, and the
	// exit status marks the campaign as incomplete.
	interrupt := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "chaos: interrupted, finishing in-flight runs and flushing the partial report")
		signal.Stop(sig) // a second Ctrl-C kills the process the default way
		close(interrupt)
	}()
	c.Interrupt = interrupt

	if *verbose {
		c.Progress = func(r *chaos.Result) {
			status := "ok"
			if r.Failed() {
				status = "FAIL [" + r.Category + "] " + r.First()
			}
			fmt.Printf("%-70s %s\n", r.Spec.ID(), status)
		}
	}

	rep := c.Run()
	fmt.Print(rep.Render())

	if *out != "" && len(rep.Repros) > 0 {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		for i, r := range rep.Repros {
			path := filepath.Join(*out, fmt.Sprintf("repro-%02d-%s.json", i, r.Category))
			if err := r.WriteFile(path); err != nil {
				fmt.Fprintln(os.Stderr, "chaos:", err)
				os.Exit(1)
			}
			fmt.Printf("repro: %s (%s, %d shrink runs)\n", path, r.Spec.ID(), r.ShrinkRuns)
		}
	}

	exit := 0
	if !rep.CompliantClean() {
		fmt.Fprintln(os.Stderr, "chaos: a compliant box violated a property")
		exit = 1
	}
	if *expected && !rep.Interrupted() {
		if st := rep.ByBox["buggy"]; st == nil || st.Failed == 0 {
			fmt.Fprintln(os.Stderr, "chaos: the planted-bug box was not caught")
			exit = 1
		}
	}
	if rep.Interrupted() {
		fmt.Fprintf(os.Stderr, "chaos: campaign interrupted: %d of %d runs skipped\n",
			rep.Skipped, rep.Runs+rep.Skipped)
		exit = 130 // conventional 128+SIGINT: partial evidence is not a pass
	}
	os.Exit(exit)
}

// liveCampaign runs the live-runtime leg: one run per (topology, size, seed)
// with a seeded fault schedule — steady drops, one partition window, one
// crash/restart — against a real table over lossy links, judged
// by the shared checkers. SIGINT follows the same convention as simulator
// campaigns: the partial report is flushed and the exit status is 130.
func liveCampaign(topos []string, seeds []int64, sizes []string, dur time.Duration, planFile, blackoutSpec string) int {
	var blackout *chaos.LiveBlackout
	if blackoutSpec != "" {
		var err error
		if blackout, err = parseBlackout(blackoutSpec); err != nil {
			errorf(err)
			return 2
		}
	}
	var links *chaos.LinkSpec
	if planFile != "" {
		raw, err := os.ReadFile(planFile)
		if err != nil {
			errorf(err)
			return 2
		}
		links = &chaos.LinkSpec{}
		if err := json.Unmarshal(raw, links); err != nil {
			errorf(fmt.Errorf("chaos: bad -liveplan %s: %w", planFile, err))
			return 2
		}
	}

	var c chaos.LiveCampaign
	for _, topo := range topos {
		for _, size := range sizes {
			n, err := strconv.Atoi(size)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: bad size %q\n", size)
				return 2
			}
			for _, seed := range seeds {
				spec := chaos.LiveSpec{
					Topology: topo, N: n, Seed: seed, Duration: dur,
					Links: links,
					Crashes: []chaos.LiveCrash{
						{P: sim.ProcID(n / 2), At: dur / 4, RestartAfter: dur / 12},
					},
				}
				if blackout != nil {
					spec.Crashes = nil
					spec.Blackout = blackout
				}
				if links == nil {
					// The built-in schedule: background drops plus one
					// partition window cutting off the lower half of the
					// table early in the run (ticks of the default 500µs).
					side := make([]sim.ProcID, n/2)
					for i := range side {
						side[i] = sim.ProcID(i)
					}
					spec.Links = &chaos.LinkSpec{
						Drop: 0.10,
						Windows: []chaos.WindowSpec{
							{Start: 1000, End: 2000, Drop: 1, Side: side},
						},
					}
				}
				c.Specs = append(c.Specs, spec)
			}
		}
	}

	interrupt := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "chaos: interrupted, flushing the partial live report")
		signal.Stop(sig)
		close(interrupt)
	}()
	c.Interrupt = interrupt
	c.Progress = func(r *chaos.LiveResult) {
		status := "ok"
		if r.Failed() {
			status = "FAIL " + r.First()
		}
		fmt.Printf("%-60s %s\n", r.Spec.ID(), status)
	}

	rep := c.Run()
	fmt.Print(rep.Render())
	if !rep.Clean() {
		fmt.Fprintln(os.Stderr, "chaos: a live run violated a property")
		return 1
	}
	if rep.Interrupted() {
		fmt.Fprintln(os.Stderr, "chaos: live campaign interrupted: partial evidence is not a pass")
		return 130
	}
	return 0
}

// errorf prefixes "chaos:" only when the error is not already package-tagged.
func errorf(err error) {
	if strings.HasPrefix(err.Error(), "chaos:") {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Fprintln(os.Stderr, "chaos:", err)
}

func replayArtifact(path string) int {
	r, err := chaos.LoadRepro(path)
	if err != nil {
		errorf(err)
		return 2
	}
	res, err := r.Replay()
	if err != nil {
		errorf(err)
		return 1
	}
	fmt.Printf("replayed %s: [%s] %s\n", r.Spec.ID(), res.Category, res.First())
	return 0
}

func split(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func int64List(s string) []int64 {
	var out []int64
	for _, f := range split(s) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: bad seed %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// parseBlackout parses the -live-blackout "at+gap" shape, e.g. "1500ms+500ms".
func parseBlackout(s string) (*chaos.LiveBlackout, error) {
	at, gap, ok := strings.Cut(s, "+")
	if !ok {
		return nil, fmt.Errorf("chaos: -live-blackout %q is not \"at+gap\" (e.g. 1500ms+500ms)", s)
	}
	atD, err := time.ParseDuration(at)
	if err != nil {
		return nil, fmt.Errorf("chaos: bad -live-blackout at %q: %w", at, err)
	}
	gapD, err := time.ParseDuration(gap)
	if err != nil {
		return nil, fmt.Errorf("chaos: bad -live-blackout gap %q: %w", gap, err)
	}
	return &chaos.LiveBlackout{At: atD, RestartAfter: gapD}, nil
}
