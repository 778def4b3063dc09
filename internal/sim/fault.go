package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Crash is one entry of a fault plan: process P crashes at time At.
type Crash struct {
	P  ProcID
	At Time
}

// FaultPlan is a named crash schedule. Plans make experiment sweeps
// declarative: generators below produce the standard shapes (none, single,
// staggered, minority, majority) and Apply installs them on a kernel.
type FaultPlan struct {
	Name    string
	Crashes []Crash
}

// Apply validates the plan and schedules every crash on k. A plan with a
// negative crash time, a process outside 0..N-1, or two crashes of the same
// process is rejected with an error: double-scheduling a crash would
// silently distort which CrashAt wins, and a malformed plan in a sweep is a
// generator bug worth surfacing, not a run to quietly misexecute.
func (fp FaultPlan) Apply(k *Kernel) error {
	if err := fp.Validate(k.N()); err != nil {
		return err
	}
	for _, c := range fp.Crashes {
		k.CrashAt(c.P, c.At)
	}
	return nil
}

// Validate checks the plan against a system of n processes: crash times must
// be non-negative, processes in range, and no process may crash twice.
func (fp FaultPlan) Validate(n int) error {
	seen := make(map[ProcID]bool, len(fp.Crashes))
	for _, c := range fp.Crashes {
		if c.At < 0 {
			return fmt.Errorf("sim: fault plan %q: negative crash time %d for process %d", fp.Name, c.At, c.P)
		}
		if c.P < 0 || int(c.P) >= n {
			return fmt.Errorf("sim: fault plan %q: process %d out of range 0..%d", fp.Name, c.P, n-1)
		}
		if seen[c.P] {
			return fmt.Errorf("sim: fault plan %q: duplicate crash of process %d", fp.Name, c.P)
		}
		seen[c.P] = true
	}
	return nil
}

// Faulty returns the set of processes the plan crashes.
func (fp FaultPlan) Faulty() map[ProcID]bool {
	out := make(map[ProcID]bool, len(fp.Crashes))
	for _, c := range fp.Crashes {
		out[c.P] = true
	}
	return out
}

// Correct returns the processes of 0..n-1 the plan never crashes, sorted.
func (fp FaultPlan) Correct(n int) []ProcID {
	faulty := fp.Faulty()
	var out []ProcID
	for i := 0; i < n; i++ {
		if !faulty[ProcID(i)] {
			out = append(out, ProcID(i))
		}
	}
	return out
}

func (fp FaultPlan) String() string {
	if len(fp.Crashes) == 0 {
		return fp.Name + "{}"
	}
	parts := make([]string, len(fp.Crashes))
	for i, c := range fp.Crashes {
		parts[i] = fmt.Sprintf("%d@%d", c.P, c.At)
	}
	return fp.Name + "{" + strings.Join(parts, ",") + "}"
}

// NoFaults is the empty plan.
func NoFaults() FaultPlan { return FaultPlan{Name: "none"} }

// MinorityCrashes crashes a random strict minority of 0..n-1 (at least one
// process if n > 2) at random times in [lo, hi]. Deterministic given rng.
func MinorityCrashes(n int, lo, hi Time, rng *rand.Rand) FaultPlan {
	maxF := (n - 1) / 2
	if maxF < 1 {
		return NoFaults()
	}
	f := 1 + rng.Intn(maxF)
	perm := rng.Perm(n)
	fp := FaultPlan{Name: "minority"}
	for i := 0; i < f; i++ {
		fp.Crashes = append(fp.Crashes, Crash{
			P:  ProcID(perm[i]),
			At: lo + Time(rng.Int63n(int64(max(1, hi-lo+1)))),
		})
	}
	sort.Slice(fp.Crashes, func(i, j int) bool { return fp.Crashes[i].At < fp.Crashes[j].At })
	return fp
}

// AllButOne crashes every process except survivor, staggered from start —
// the wait-freedom stress plan ("regardless of how many processes crash").
func AllButOne(n int, survivor ProcID, start, gap Time) FaultPlan {
	fp := FaultPlan{Name: "all-but-one"}
	at := start
	for i := 0; i < n; i++ {
		if ProcID(i) == survivor {
			continue
		}
		fp.Crashes = append(fp.Crashes, Crash{P: ProcID(i), At: at})
		at += gap
	}
	return fp
}

// RunUntil executes the simulation until cond returns true (checked after
// every event that runs, so a cond over protocol state stops where it
// would after every event: a step the kernel lets lapse unqueued runs
// nothing; see wake), the horizon passes, or the event queue drains. It
// returns the stop time and whether cond was met.
func (k *Kernel) RunUntil(horizon Time, cond func() bool) (Time, bool) {
	return k.runLoop(horizon, cond)
}
