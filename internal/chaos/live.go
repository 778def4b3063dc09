package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// This file is the live-runtime face of the campaign engine: where Execute
// replays a Spec inside the deterministic simulator, RunLive subjects a real
// table — goroutines, wall-clock timers, lossy links — to a seeded
// fault schedule and validates the resulting trace with the same checkers.
// The schedule (drop rates, partition windows, crash/restart times) is a
// pure function of the spec, so the same LiveSpec always injects the same
// faults; what the OS scheduler does around them is real nondeterminism,
// which is exactly the point of the exercise.

// LiveCrash is one crash/restart fault of a live schedule: process P is
// crashed At after the run starts and restarted RestartAfter later with
// fresh protocol state (forks resync plus heartbeat reset).
type LiveCrash struct {
	P            rt.ProcID     `json:"p"`
	At           time.Duration `json:"at"`
	RestartAfter time.Duration `json:"restart_after"`
}

// LiveBlackout is a whole-system crash: every process goes down together At
// after the run starts and the full table restarts RestartAfter later — the
// in-process analogue of kill -9 on a server hosting all diners, which is
// what internal/e2e's crash scenarios do to a real dineserve.
type LiveBlackout struct {
	At           time.Duration `json:"at"`
	RestartAfter time.Duration `json:"restart_after"`
}

// LiveSpec describes one live chaos run. Links reuses the declarative link
// shape of the simulator campaigns — the identical JSON drives the kernel,
// live.Runtime.SetLinks, and the livechaos TCP proxy.
type LiveSpec struct {
	Topology string        `json:"topology"`
	N        int           `json:"n"`
	Seed     int64         `json:"seed"`
	Tick     time.Duration `json:"tick,omitempty"`     // default 500µs
	Duration time.Duration `json:"duration,omitempty"` // default 4s
	Links    *LinkSpec     `json:"links,omitempty"`
	Crashes  []LiveCrash   `json:"crashes,omitempty"`
	Blackout *LiveBlackout `json:"blackout,omitempty"` // exclusive with Crashes
}

func (s *LiveSpec) withDefaults() LiveSpec {
	out := *s
	if out.Tick <= 0 {
		out.Tick = 500 * time.Microsecond
	}
	if out.Duration <= 0 {
		out.Duration = 4 * time.Second
	}
	return out
}

// Validate rejects live specs the driver cannot execute. All faults must
// finish in the first half of the run: the second half is the convergence
// era the ◇WX verdict is judged on. Every restart gap must outlast the link
// plan's longest hold on a message (Reorder ticks, plus 8 when it
// duplicates): a shorter gap lets a pre-crash message reach the new
// incarnation (see live.Runtime.Restart).
func (s LiveSpec) Validate() error {
	sp := s.withDefaults()
	if sp.N < 2 {
		return fmt.Errorf("chaos: live spec n=%d, need at least 2 diners", sp.N)
	}
	if _, err := graph.Named(sp.Topology, sp.N); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if sp.Links != nil {
		if err := sp.Links.Plan().Validate(sp.N); err != nil {
			return err
		}
		for _, w := range sp.Links.Windows {
			if time.Duration(w.End)*sp.Tick > sp.Duration/2 {
				return fmt.Errorf("chaos: live window ends at tick %d, past the run's half-point", w.End)
			}
		}
	}
	var hold time.Duration
	if l := sp.Links; l != nil {
		ticks := l.Reorder
		if l.Dup > 0 {
			ticks += 8
		}
		hold = time.Duration(ticks) * sp.Tick
	}
	seen := make(map[rt.ProcID]bool)
	for _, c := range sp.Crashes {
		if c.P < 0 || int(c.P) >= sp.N {
			return fmt.Errorf("chaos: live crash of process %d out of range 0..%d", c.P, sp.N-1)
		}
		if seen[c.P] {
			return fmt.Errorf("chaos: duplicate live crash of process %d", c.P)
		}
		seen[c.P] = true
		if c.RestartAfter <= hold {
			return fmt.Errorf("chaos: live crash of %d needs a restart gap over the links' longest hold %v", c.P, hold)
		}
		if c.At+c.RestartAfter > sp.Duration/2 {
			return fmt.Errorf("chaos: live crash of %d recovers past the run's half-point", c.P)
		}
	}
	if b := sp.Blackout; b != nil {
		if len(sp.Crashes) > 0 {
			return fmt.Errorf("chaos: live blackout and per-process crashes are mutually exclusive")
		}
		if b.RestartAfter <= hold {
			return fmt.Errorf("chaos: live blackout needs a restart gap over the links' longest hold %v", hold)
		}
		if b.At+b.RestartAfter > sp.Duration/2 {
			return fmt.Errorf("chaos: live blackout recovers past the run's half-point")
		}
	}
	return nil
}

// ID is the spec's short identity for reports.
func (s LiveSpec) ID() string {
	sp := s.withDefaults()
	crashes := "none"
	if len(sp.Crashes) > 0 {
		parts := make([]string, len(sp.Crashes))
		for i, c := range sp.Crashes {
			parts[i] = fmt.Sprintf("%d@%v+%v", c.P, c.At, c.RestartAfter)
		}
		crashes = strings.Join(parts, ",")
	}
	if sp.Blackout != nil {
		crashes = fmt.Sprintf("blackout@%v+%v", sp.Blackout.At, sp.Blackout.RestartAfter)
	}
	return fmt.Sprintf("live/%s%d/seed%d/%v/%s/%s", sp.Topology, sp.N, sp.Seed, sp.Duration, sp.Links, crashes)
}

// LiveResult is the verdict of one live run.
type LiveResult struct {
	Spec        LiveSpec
	End         rt.Time // run length in ticks
	Meals       []int   // per-diner eating sessions
	Dropped     int64   // link faults actually injected
	Duped       int64
	Recovered   int      // restarts that completed
	Failures    []string // empty = clean verdict
	Interrupted bool     // run cut short; verdict not rendered
}

// Failed reports whether any property check failed.
func (r *LiveResult) Failed() bool { return len(r.Failures) > 0 }

// First returns the first failure, or "ok".
func (r *LiveResult) First() string {
	if len(r.Failures) == 0 {
		return "ok"
	}
	return r.Failures[0]
}

// RunLive executes one live chaos run: a dining table on the live runtime
// over the spec's lossy links, with the spec's crash/restart schedule
// applied, validated by the shared trace checkers. interrupt (may be nil)
// cuts the run short without a verdict.
func RunLive(spec LiveSpec, interrupt <-chan struct{}) (*LiveResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sp := spec.withDefaults()
	res := &LiveResult{Spec: spec}
	g, err := graph.Named(sp.Topology, sp.N)
	if err != nil {
		return nil, err
	}

	log := &trace.Log{}
	r := live.New(live.Config{N: sp.N, Tick: sp.Tick, Seed: sp.Seed, Tracer: log})
	if err := r.SetLinks(sp.Links.Plan()); err != nil {
		return nil, err
	}
	// The links eat messages, so rebuild reliable channels the same way the
	// simulator campaigns do — with the retransmitting transport. Dropped
	// messages then cost one retransmission timeout, which the heartbeat
	// suspicion timeout must dominate.
	tr := transport.Enable(r, "rt", transport.Config{})
	hb := detector.NewHeartbeat(tr, "hb", detector.HeartbeatConfig{
		Interval: 20, Check: 10, Timeout: 600, Bump: 300,
	})
	tbl := forks.New(tr, g, "dine", hb, forks.Config{})
	for _, p := range g.Nodes() {
		dining.Drive(r, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 60, EatMin: 10, EatMax: 30, FirstHunger: 30,
		})
	}
	r.Start() // window ticks count from here

	// The crash schedule. Each fault is its own timeline: crash, wait out
	// the gap (which Validate makes outlast the links' longest hold, so no
	// pre-crash message is still in flight at restart), then restart with
	// fresh state.
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		start := time.Now()
		// wait sleeps d, reporting false if the run is interrupted first.
		wait := func(d time.Duration) bool {
			if d <= 0 {
				return true
			}
			select {
			case <-time.After(d):
				return true
			case <-interrupt:
				return false
			}
		}
		restart := func(p rt.ProcID) {
			if r.Restart(p, func() {
				tr.Reset(p) // first: resync messages need a working sender
				tbl.Reset(p)
				hb.Reset(p)
			}) {
				res.Recovered++
			}
		}
		if b := sp.Blackout; b != nil {
			// Whole-system crash: take every process down at once, wait out
			// the gap, then restart the entire table with fresh protocol
			// state — the same shape a kill -9'd server presents its clients.
			if !wait(b.At - time.Since(start)) {
				return
			}
			for _, p := range g.Nodes() {
				r.Crash(p)
			}
			if !wait(b.RestartAfter) {
				return
			}
			for _, p := range g.Nodes() {
				restart(p)
			}
			return
		}
		for _, c := range sp.Crashes {
			if !wait(c.At - time.Since(start)) {
				return
			}
			r.Crash(c.P)
			if !wait(c.RestartAfter) {
				return
			}
			restart(c.P)
		}
	}()

	select {
	case <-time.After(sp.Duration):
	case <-interrupt:
		res.Interrupted = true
	}
	<-crashDone
	end := r.Now()
	r.Stop()
	res.End = end
	res.Dropped, res.Duped = r.Counter("link.dropped"), r.Counter("link.duped")

	eat := log.Sessions("eating")
	res.Meals = make([]int, sp.N)
	for _, p := range g.Nodes() {
		res.Meals[p] = len(eat[trace.SessionKey{Inst: "dine", P: p}])
	}
	if res.Interrupted {
		return res, nil
	}

	// Verdicts. Faults end by the half-point (Validate enforces it), so the
	// run's second half is the convergence era: exclusion violations must
	// have stopped by then, and every diner — the restarted ones included —
	// must still be eating in it.
	wantRecovered := len(sp.Crashes)
	if sp.Blackout != nil {
		wantRecovered = sp.N
	}
	if res.Recovered != wantRecovered {
		res.Failures = append(res.Failures,
			fmt.Sprintf("restarts: %d of %d crashes recovered", res.Recovered, wantRecovered))
	}
	if _, err := checker.EventualWeakExclusion(log, g, "dine", end/2, end); err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("exclusion: %v", err))
	}
	for _, p := range g.Nodes() {
		late := 0
		for _, iv := range eat[trace.SessionKey{Inst: "dine", P: p}] {
			if iv.Start > end/2 {
				late++
			}
		}
		if late == 0 {
			res.Failures = append(res.Failures,
				fmt.Sprintf("starvation: diner %d never ate in the convergence era (%d meals total)", p, res.Meals[p]))
		}
	}
	if want := wantRecovered; want > 0 {
		if got := len(log.Filter(rt.Record{Kind: trace.KindRecover, P: -1, Peer: -1})); got != want {
			res.Failures = append(res.Failures, fmt.Sprintf("trace: %d recover records, want %d", got, want))
		}
	}
	return res, nil
}

// LiveCampaign runs a sequence of live specs, honoring the same interrupt
// contract as the simulator campaign: Ctrl-C finishes nothing mid-air, skips
// the rest, and the partial report says so.
type LiveCampaign struct {
	Specs     []LiveSpec
	Interrupt <-chan struct{}
	Progress  func(*LiveResult) // called per finished run; may be nil
}

// LiveReport aggregates a live campaign.
type LiveReport struct {
	Results []*LiveResult
	Errors  []error // specs that failed validation or setup
	Skipped int     // specs not run because of an interrupt
}

// Interrupted reports whether the campaign was cut short.
func (rep *LiveReport) Interrupted() bool {
	for _, r := range rep.Results {
		if r.Interrupted {
			return true
		}
	}
	return rep.Skipped > 0
}

// Clean reports whether every completed run passed every check and nothing
// failed to start.
func (rep *LiveReport) Clean() bool {
	if len(rep.Errors) > 0 {
		return false
	}
	for _, r := range rep.Results {
		if r.Failed() {
			return false
		}
	}
	return true
}

// Render formats the report.
func (rep *LiveReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live chaos campaign: %d runs\n", len(rep.Results))
	for _, r := range rep.Results {
		status := "ok"
		switch {
		case r.Interrupted:
			status = "interrupted"
		case r.Failed():
			status = "FAIL " + strings.Join(r.Failures, "; ")
		}
		fmt.Fprintf(&b, "  %-60s %s\n", r.Spec.ID(), status)
		if !r.Interrupted {
			fmt.Fprintf(&b, "    t=%d meals=%v dropped=%d duped=%d recovered=%d\n",
				r.End, r.Meals, r.Dropped, r.Duped, r.Recovered)
		}
	}
	for _, err := range rep.Errors {
		fmt.Fprintf(&b, "  error: %v\n", err)
	}
	if rep.Skipped > 0 {
		fmt.Fprintf(&b, "  skipped: %d runs (interrupted)\n", rep.Skipped)
	}
	return b.String()
}

// Run executes the campaign sequentially. Live runs occupy wall-clock time
// and real cores; unlike simulator runs they are not worth parallelizing —
// co-scheduling two live tables just distorts both runs' timing.
func (c LiveCampaign) Run() *LiveReport {
	rep := &LiveReport{}
	for i, spec := range c.Specs {
		select {
		case <-c.Interrupt:
			rep.Skipped = len(c.Specs) - i
			return rep
		default:
		}
		res, err := RunLive(spec, c.Interrupt)
		if err != nil {
			rep.Errors = append(rep.Errors, err)
			continue
		}
		rep.Results = append(rep.Results, res)
		if c.Progress != nil {
			c.Progress(res)
		}
	}
	return rep
}
