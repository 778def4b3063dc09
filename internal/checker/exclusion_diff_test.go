package checker_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sameReport fails unless the linear sweep and the quadratic reference
// agree on l, violation for violation and on LastViolation.
func sameReport(t *testing.T, what string, l *trace.Log, g *graph.Graph, inst string, horizon sim.Time) checker.ExclusionReport {
	t.Helper()
	got := checker.Exclusion(l, g, inst, horizon)
	want := checker.ExclusionQuadratic(l, g, inst, horizon)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: linear sweep diverges from the quadratic reference\n got %+v\nwant %+v", what, got, want)
	}
	return got
}

func state(l *trace.Log, t sim.Time, p sim.ProcID, note string) {
	l.Trace(sim.Record{T: t, P: p, Kind: trace.KindState, Inst: "t", Note: note, Peer: -1})
}

func mark(l *trace.Log, t sim.Time, p sim.ProcID, kind string) {
	l.Trace(sim.Record{T: t, P: p, Kind: kind, Peer: -1})
}

// TestExclusionMatchesQuadratic pins the forward-window Exclusion to the
// plain double loop (export_test.go) on recorded runs, on random interval
// logs, and on hand-built logs whose records are out of time order.
func TestExclusionMatchesQuadratic(t *testing.T) {
	t.Run("campaign", func(t *testing.T) {
		graphs := map[string]func(int) *graph.Graph{"ring": graph.Ring, "clique": graph.Clique, "star": graph.Star}
		violating := 0
		for _, spec := range chaos.DefaultCampaign(6000).Specs() {
			res := chaos.Execute(spec)
			if res.Log == nil {
				t.Fatalf("%s: no trace", spec.ID())
			}
			rep := sameReport(t, spec.ID(), res.Log, graphs[spec.Topology](spec.N), "dine", res.End)
			if len(rep.Violations) > 0 {
				violating++
			}
		}
		if violating == 0 {
			t.Fatal("no campaign run had a violation to report: the comparison is vacuous")
		}
	})

	// Random schedules on a 4-clique: per diner a run of sessions with
	// zero-length and touching ones, some left open, crashes (which close
	// the open session) and recoveries, merged into one time-ordered log.
	t.Run("random", func(t *testing.T) {
		g := graph.Clique(4)
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l := &trace.Log{}
			const horizon = 400
			for now := sim.Time(0); now < horizon; now += sim.Time(rng.Intn(3)) {
				p := sim.ProcID(rng.Intn(4))
				switch r := rng.Intn(20); {
				case r < 9:
					state(l, now, p, "eating")
				case r < 18:
					state(l, now, p, "exiting")
				case r == 18:
					mark(l, now, p, trace.KindCrash)
				default:
					mark(l, now, p, trace.KindRecover)
				}
			}
			sameReport(t, fmt.Sprintf("seed %d", seed), l, g, "t", horizon)
		}
	})

	// The shapes checker_test.go builds by hand: each diner's sessions
	// appended whole, so the log is out of time order across (and, in the
	// last case, within) processes.
	t.Run("hand-built", func(t *testing.T) {
		eat := func(l *trace.Log, p sim.ProcID, from, to sim.Time) {
			state(l, from, p, "eating")
			if to != sim.Never {
				state(l, to, p, "exiting")
			}
		}
		overlap := &trace.Log{}
		eat(overlap, 0, 10, 30)
		eat(overlap, 1, 20, 40)
		if rep := sameReport(t, "overlap", overlap, graph.Pair(0, 1), "t", 1000); len(rep.Violations) != 1 {
			t.Fatalf("overlap: %+v", rep)
		}

		crashed := &trace.Log{}
		eat(crashed, 0, 10, sim.Never)
		mark(crashed, 25, 0, trace.KindCrash)
		eat(crashed, 1, 20, 40)
		sameReport(t, "crashed eater", crashed, graph.Pair(0, 1), "t", 1000)

		open := &trace.Log{}
		eat(open, 0, 10, sim.Never)
		eat(open, 1, 5, 5) // zero-length, before
		eat(open, 1, 10, 10)
		eat(open, 1, 50, sim.Never)
		sameReport(t, "open ends", open, graph.Pair(0, 1), "t", 60)

		// One diner's own sessions recorded backwards: Sessions sorts them.
		backwards := &trace.Log{}
		eat(backwards, 0, 100, 120)
		eat(backwards, 0, 10, 30)
		eat(backwards, 1, 110, 130)
		eat(backwards, 1, 20, 40)
		if rep := sameReport(t, "backwards", backwards, graph.Pair(0, 1), "t", 1000); len(rep.Violations) != 2 {
			t.Fatalf("backwards: %+v", rep)
		}
	})
}
