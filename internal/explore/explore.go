// Package explore provides bounded-exhaustive schedule exploration: it
// re-runs a scenario under *every* assignment of delays to the first K
// messages, systematically covering the early interleavings where
// distributed races concentrate (both non-trivial bugs found while building
// this repository — a stale-EXIT unbooking race and the earned-trust
// admission race — manifested within the first few exchanges of a run).
//
// Random schedule sampling (seeds) and coverage-guided fuzzing explore the
// same space probabilistically; exploration makes a small prefix of it a
// *proof by enumeration*: if no assignment of the first K delays violates
// the property, no adversary confined to that prefix can either.
package explore

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// PrefixDelay assigns the i-th message sent in the run the delay Choices
// [Assignment's i-th digit]; messages beyond the prefix use Tail. It is the
// enumerable counterpart of sim.BytesDelay.
type PrefixDelay struct {
	Choices    []sim.Time // the delay alphabet, e.g. {1, 40}
	Assignment []int      // digit per early message, each < len(Choices)
	Tail       sim.Time   // delay for messages after the prefix (default 2)
	pos        int
}

// Delay implements sim.DelayPolicy. PrefixDelay is stateful: use a fresh
// instance per run.
func (p *PrefixDelay) Delay(_ *rand.Rand, _, _ sim.ProcID, _ sim.Time) sim.Time {
	if p.pos < len(p.Assignment) {
		d := p.Choices[p.Assignment[p.pos]]
		p.pos++
		if d < 1 {
			d = 1
		}
		return d
	}
	p.pos++
	if p.Tail < 1 {
		return 2
	}
	return p.Tail
}

// Scenario builds and runs one complete simulation under the given delay
// policy and returns nil if every property held, or a describing error.
// The scenario must construct its own kernel (exploration replays it from
// scratch for every assignment) and must be deterministic given the policy.
type Scenario func(policy sim.DelayPolicy) error

// Failure records one violating assignment.
type Failure struct {
	Assignment []int
	Err        error
}

func (f Failure) String() string {
	return fmt.Sprintf("assignment %v: %v", f.Assignment, f.Err)
}

// Result summarizes an exploration.
type Result struct {
	Runs     int
	Failures []Failure
}

// Ok reports whether every explored schedule satisfied the scenario.
func (r Result) Ok() bool { return len(r.Failures) == 0 }

// Exhaustive runs the scenario under every assignment of the first prefix
// messages' delays drawn from choices — |choices|^prefix runs — and returns
// all failures (capped at 10 to keep reports readable). Exploration order
// is lexicographic, so results are reproducible.
func Exhaustive(sc Scenario, prefix int, choices []sim.Time, tail sim.Time) Result {
	if prefix < 0 || len(choices) == 0 {
		panic("explore: need a non-negative prefix and a non-empty alphabet")
	}
	var res Result
	assignment := make([]int, prefix)
	for {
		res.Runs++
		pol := &PrefixDelay{
			Choices:    choices,
			Assignment: append([]int(nil), assignment...),
			Tail:       tail,
		}
		if err := sc(pol); err != nil {
			if len(res.Failures) < 10 {
				res.Failures = append(res.Failures, Failure{
					Assignment: append([]int(nil), assignment...),
					Err:        err,
				})
			}
		}
		// Next assignment (odometer increment).
		i := prefix - 1
		for ; i >= 0; i-- {
			assignment[i]++
			if assignment[i] < len(choices) {
				break
			}
			assignment[i] = 0
		}
		if i < 0 {
			return res
		}
	}
}
