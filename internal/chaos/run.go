package chaos

import (
	"fmt"
	"sync"

	"repro/internal/checker"
	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/dining/perfect"
	"repro/internal/dining/token"
	"repro/internal/dining/trap"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Violation categories, ordered by severity. Category is the shrinker's
// equivalence notion: a candidate spec reproduces a failure iff it fails in
// the same category as the original.
const (
	CatPanic      = "panic"      // protocol code panicked mid-run
	CatWatchdog   = "watchdog"   // budget watchdog stopped a livelocked run
	CatExclusion  = "exclusion"  // weak-exclusion violation (perpetual or post-convergence)
	CatStarvation = "starvation" // a correct hungry diner never ate
)

// Result is the outcome of executing one Spec.
type Result struct {
	Spec       Spec
	End        sim.Time        // virtual time the run stopped at
	Events     int64           // kernel events the run processed
	TraceHash  uint64          // deterministic digest of the full trace
	Category   string          // "" if the run satisfied every property
	Violations []string        // human-readable findings, worst first
	Failure    *sim.RunFailure // panic/watchdog detail, when Category warrants
	Log        *trace.Log      // full trace (nil-safe to ignore)
}

// Failed reports whether any checker or robustness hook flagged the run.
func (r *Result) Failed() bool { return r.Category != "" }

// First returns the headline violation.
func (r *Result) First() string {
	if len(r.Violations) == 0 {
		return ""
	}
	return r.Violations[0]
}

// Execute runs one spec end-to-end: build the system, arm the fault plan
// and the watchdog, run under panic recovery, then apply the checker suite
// appropriate to the box's advertised exclusion class. It never panics on
// protocol misbehavior — that comes back as a Result with Category set.
//
// The run records into a recycled buffer (traceBufs) and the Result's Log
// is allocated once, at the trace's exact length.
func Execute(spec Spec) *Result {
	buf := traceBufs.Get().(*[]sim.Record)
	log := &trace.Log{Records: (*buf)[:0]}
	res := execute(spec, log)
	if res.Log != nil {
		res.Log = &trace.Log{Records: make([]sim.Record, log.Len())}
		copy(res.Log.Records, log.Records)
	}
	*buf = log.Records
	traceBufs.Put(buf)
	return res
}

// traceBufs recycles the buffers runs record into. A buffer grows to the
// longest trace its worker has recorded, so a run neither reserves records it
// never writes nor re-grows the ones it does.
var traceBufs = sync.Pool{New: func() any { return new([]sim.Record) }}

// execute is Execute recording into log. Result.Log is set to log once the
// run's kernel exists.
func execute(spec Spec, log *trace.Log) *Result {
	res := &Result{Spec: spec}
	if err := spec.Validate(); err != nil {
		// An unexecutable spec is an engine-usage bug; surface it loudly but
		// structurally, so campaigns report it instead of crashing.
		res.Category = CatPanic
		res.Violations = []string{fmt.Sprintf("invalid spec: %v", err)}
		return res
	}

	g, _ := graph.Named(spec.Topology, spec.N)
	n := g.N()
	// Centralized boxes get a reliable coordinator process beyond the graph.
	extra := 0
	if spec.Box == "perfect" || spec.Box == "trap" {
		extra = 1
	}
	drive := dining.DriverConfig{ThinkMin: 10, ThinkMax: 120, EatMin: 5, EatMax: 40}
	policy, _ := spec.Delay.Policy()
	k := sim.NewKernel(n+extra,
		sim.WithSeed(spec.Seed),
		sim.WithTracer(log),
		sim.WithDelay(policy),
	)
	res.Log = log

	// Network model, outermost first: the transport (the box and its oracle
	// are wired on it, so every protocol send is wrapped) and then the link
	// adversary underneath it, armed before the box exists.
	var net rt.Runtime = k
	if spec.Transport {
		net = transport.Enable(k, "rt", transport.Config{})
	}
	if spec.Links != nil {
		if err := spec.Links.Plan().Apply(k); err != nil {
			res.Category = CatPanic
			res.Violations = []string{err.Error()}
			return res
		}
	}

	tbl, err := buildBox(net, g, spec)
	if err != nil {
		res.Category = CatPanic
		res.Violations = []string{err.Error()}
		return res
	}
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), drive)
	}
	if err := armCrashes(k, tbl, spec); err != nil {
		res.Category = CatPanic
		res.Violations = []string{err.Error()}
		return res
	}
	k.SetBudget(spec.budget(n))

	end, fail := k.RunProtected(spec.Horizon)
	res.End = end
	res.Events = k.Events()
	res.TraceHash = log.Hash()
	if fail != nil {
		res.Failure = fail
		if fail.Panic != nil {
			res.Category = CatPanic
		} else {
			res.Category = CatWatchdog
		}
		res.Violations = append(res.Violations, fail.Error())
		return res
	}

	res.check(g, log, end)
	return res
}

// check applies the checker suite and fills Category/Violations. The
// exclusion criterion follows the box's contract: the perfect box promises
// perpetual weak exclusion, every other box only an exclusive suffix, so
// ◇WX is checked against a convergence point at 3/4 of the run — late
// enough for GST, oracle convergence, token-duplicate extinction, and the
// trap's mistake era on every sweep configuration the engine generates.
func (r *Result) check(g *graph.Graph, log *trace.Log, end sim.Time) {
	const inst = "dine"
	if r.Spec.Box == "perfect" {
		if _, err := checker.PerpetualWeakExclusion(log, g, inst, end); err != nil {
			r.Category = CatExclusion
			r.Violations = append(r.Violations, err.Error())
		}
	} else {
		convergedBy := end * 3 / 4
		if _, err := checker.EventualWeakExclusion(log, g, inst, convergedBy, end); err != nil {
			r.Category = CatExclusion
			r.Violations = append(r.Violations, err.Error())
		}
	}
	// Hunger that started in the final quarter has legitimately not been
	// served yet; anything older must have eaten.
	grace := end - end/4
	if starved := checker.WaitFreedom(log, inst, grace, end); len(starved) > 0 {
		if r.Category == "" {
			r.Category = CatStarvation
		}
		for _, s := range starved {
			r.Violations = append(r.Violations, s.String())
		}
	}
}

// buildBox constructs the dining service under test. The heartbeat-driven
// boxes share the oracle construction of cmd/dinersim.
func buildBox(k rt.Runtime, g *graph.Graph, spec Spec) (dining.Table, error) {
	era := spec.Era
	if era <= 0 {
		era = spec.Horizon / 8
	}
	// Deployment tuning for lossy networks: the transport restores reliable
	// delivery but not timeliness — a dropped heartbeat arrives one
	// retransmission timeout (or a few, under a loss streak) late. The
	// oracle's partial-synchrony parameters must dominate that, or every
	// loss is a false suspicion that eats horizon converging away.
	hb := detector.HeartbeatConfig{}
	if spec.Links != nil {
		hb = detector.HeartbeatConfig{Timeout: 240, Bump: 160}
	}
	switch spec.Box {
	case "forks":
		oracle := detector.NewHeartbeat(k, "hb", hb)
		return forks.New(k, g, "dine", oracle, forks.Config{}), nil
	case "token":
		oracle := detector.NewHeartbeat(k, "hb", hb)
		return token.New(k, g, "dine", oracle, token.Config{}), nil
	case "perfect":
		return perfect.New(k, g, "dine", sim.ProcID(g.N())), nil
	case "trap":
		return trap.New(k, g, "dine", sim.ProcID(g.N()), era), nil
	case "buggy":
		oracle := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
		return newBuggyTable(k, g, "dine", oracle), nil
	}
	return nil, fmt.Errorf("chaos: unknown box %q", spec.Box)
}

// armCrashes installs the fault plan: timed crashes go through the validated
// sim.FaultPlan path; state-triggered crashes arm kernel predicates over the
// victim's diner state machine, with edge detection so Skip counts state
// *entries*, not polled samples.
func armCrashes(k *sim.Kernel, tbl dining.Table, spec Spec) error {
	plan := sim.FaultPlan{Name: "chaos"}
	for _, c := range spec.Crashes {
		if c.When == "" {
			plan.Crashes = append(plan.Crashes, sim.Crash{P: c.P, At: c.At})
			continue
		}
		target, ok := map[string]dining.State{
			"hungry":  dining.Hungry,
			"eating":  dining.Eating,
			"exiting": dining.Exiting,
		}[c.When]
		if !ok {
			return fmt.Errorf("chaos: crash %v: unknown trigger state %q", c, c.When)
		}
		d := tbl.Diner(c.P)
		skip := c.Skip
		was := false
		entries := 0
		k.CrashWhen(c.P, "chaos:"+c.When, func() bool {
			cur := d.State() == target
			if cur && !was {
				entries++
			}
			was = cur
			return cur && entries > skip
		})
	}
	return plan.Apply(k)
}

// budget derives the watchdog budget: explicit spec overrides win, the rest
// scale with system size and horizon, generously enough that every healthy
// sweep configuration fits with an order-of-magnitude margin while runaway
// event storms and queue explosions still trip long before wall-clock pain.
func (s Spec) budget(n int) sim.Budget {
	b := sim.Budget{
		MaxSteps:  s.Budget.MaxSteps,
		MaxEvents: s.Budget.MaxEvents,
		MaxQueue:  s.Budget.MaxQueue,
	}
	if b.MaxEvents == 0 {
		b.MaxEvents = 40 * int64(n+2) * int64(s.Horizon+1000)
	}
	if b.MaxSteps == 0 {
		b.MaxSteps = b.MaxEvents / 2
	}
	if b.MaxQueue == 0 {
		b.MaxQueue = 20000 + 500*n
	}
	return b
}
