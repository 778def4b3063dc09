package checker_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sameReport fails unless the streaming monitor and the quadratic reference
// agree on l, violation for violation and on LastViolation.
func sameReport(t *testing.T, what string, l *trace.Log, g *graph.Graph, inst string, horizon sim.Time) checker.ExclusionReport {
	t.Helper()
	got := checker.Exclusion(l, g, inst, horizon)
	want := checker.ExclusionQuadratic(l, g, inst, horizon)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: monitor diverges from the quadratic reference\n got %+v\nwant %+v", what, got, want)
	}
	return got
}

func state(l *trace.Log, t sim.Time, p sim.ProcID, note string) {
	l.Trace(sim.Record{T: t, P: p, Kind: trace.KindState, Inst: "t", Note: note, Peer: -1})
}

func mark(l *trace.Log, t sim.Time, p sim.ProcID, kind string) {
	l.Trace(sim.Record{T: t, P: p, Kind: kind, Peer: -1})
}

// TestExclusionMatchesQuadratic pins the streaming Exclusion to the plain
// double loop (export_test.go) on recorded runs, on random interval logs,
// and on hand-built logs whose records are out of time order. On the
// recorded runs the monitor's violations counter must agree too.
func TestExclusionMatchesQuadratic(t *testing.T) {
	t.Run("campaign", func(t *testing.T) {
		graphs := map[string]func(int) *graph.Graph{"ring": graph.Ring, "clique": graph.Clique, "star": graph.Star}
		violating := 0
		for _, spec := range chaos.DefaultCampaign(6000).Specs() {
			res := chaos.Execute(spec)
			if res.Log == nil {
				t.Fatalf("%s: no trace", spec.ID())
			}
			g := graphs[spec.Topology](spec.N)
			rep := sameReport(t, spec.ID(), res.Log, g, "dine", res.End)
			if len(rep.Violations) > 0 {
				violating++
			}
			// The handle the monitor bumps counts exactly the violations
			// its report lists.
			var c metrics.Counter
			m := checker.NewExclusionMonitor(g, "dine", &c)
			for _, r := range res.Log.Records {
				m.Trace(r)
			}
			m.Report(res.End)
			if c.Value() != int64(len(rep.Violations)) {
				t.Fatalf("%s: counter %d, report %d violations", spec.ID(), c.Value(), len(rep.Violations))
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
		for seed := int64(0); seed < 2000; seed++ {
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

		// One diner's own sessions recorded backwards: Exclusion sorts the
		// records by time.
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

// TestExclusionMonitorSteadyStateAllocs pins the monitor's bounded state:
// once warm, a stream with no violation in it (turn-taking sessions on a
// ring, zero-length ones included, interleaved with oracle chatter) costs
// no allocation however long it runs.
func TestExclusionMonitorSteadyStateAllocs(t *testing.T) {
	const n = 6
	m := checker.NewExclusionMonitor(graph.Ring(n), "t", nil)
	now := sim.Time(0)
	round := func() {
		for p := sim.ProcID(0); p < n; p++ {
			m.Trace(sim.Record{T: now, P: p, Kind: trace.KindState, Inst: "t", Note: "eating", Peer: -1})
			m.Trace(sim.Record{T: now, P: (p + 1) % n, Kind: trace.KindSuspect, Inst: "hb", Peer: p})
			if p%2 == 0 {
				now++
			}
			m.Trace(sim.Record{T: now, P: p, Kind: trace.KindState, Inst: "t", Note: "thinking", Peer: -1})
			now++
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%.1f allocs per round, want 0", allocs)
	}
	if rep := m.Report(now); len(rep.Violations) != 0 {
		t.Fatalf("the stream was meant to be clean: %v", rep.Violations)
	}
}

// FuzzExclusionMonitor decodes bytes into a dense 4-clique stream — many
// records per tick, crashes, recoveries, eating while dead, another table's
// records — and compares the monitor with the quadratic reference. The
// first byte picks how far past the last record the horizon lies (0–2).
func FuzzExclusionMonitor(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x04, 0xc8, 0x31, 0x3a, 0xd5})
	f.Add([]byte{1, 0x00, 0xc1, 0x02, 0x30, 0x31, 0xf3, 0x34})
	f.Add([]byte{2, 0x00, 0x01, 0x31, 0x02, 0xc6, 0x35, 0xc1, 0x36})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		l := &trace.Log{}
		now := sim.Time(0)
		for _, b := range data[1:] {
			if b>>6 == 3 {
				now++
			}
			p := sim.ProcID(b & 3)
			switch op := b >> 2 & 15; {
			case op < 6:
				state(l, now, p, "eating")
			case op < 11:
				state(l, now, p, "exiting")
			case op == 11:
				l.Trace(sim.Record{T: now, P: p, Kind: trace.KindState, Inst: "u", Note: "eating", Peer: -1})
			case op < 14:
				mark(l, now, p, trace.KindCrash)
			default:
				mark(l, now, p, trace.KindRecover)
			}
		}
		sameReport(t, fmt.Sprintf("%x", data), l, graph.Clique(4), "t", now+sim.Time(data[0]%3))
	})
}
