package central

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/dining"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

const era = sim.Time(3000) // mistake era of the trap tests

// newTable wires a kernel with one process beyond g's diners, at g.N(), for
// the coordinator of a table named name with the mistake era [0, until).
func newTable(g *graph.Graph, name string, until sim.Time, opts ...sim.Option) (*sim.Kernel, *trace.Log, *Table) {
	log := &trace.Log{}
	k := sim.NewKernel(g.N()+1, append(opts, sim.WithTracer(log))...)
	return k, log, New(k, g, name, sim.ProcID(g.N()), until)
}

// runPWX drives every diner of g on a ℙWX table (era 0).
func runPWX(g *graph.Graph, seed int64, crashes map[sim.ProcID]sim.Time, horizon sim.Time) (*trace.Log, sim.Time) {
	k, log, tbl := newTable(g, "px", 0, sim.WithSeed(seed), sim.WithDelay(sim.UniformDelay{Min: 1, Max: 15}))
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			ThinkMin: 10, ThinkMax: 100, EatMin: 5, EatMax: 30,
		})
	}
	for p, at := range crashes {
		k.CrashAt(p, at)
	}
	return log, k.Run(horizon)
}

// newTrap builds a trap table (era > 0) over a pair.
func newTrap(seed int64) (*sim.Kernel, *trace.Log, *Table) {
	return newTable(graph.Pair(0, 1), "trap", era, sim.WithSeed(seed), sim.WithDelay(sim.UniformDelay{Min: 1, Max: 12}))
}

// TestPerpetualExclusion: the ℙWX table never lets two live neighbors eat
// together — in any run, crash or not.
func TestPerpetualExclusion(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for name, g := range map[string]*graph.Graph{
			"pair":    graph.Pair(0, 1),
			"clique4": graph.Clique(4),
			"ring5":   graph.Ring(5),
		} {
			log, end := runPWX(g, seed, map[sim.ProcID]sim.Time{0: 5000}, 30000)
			if _, err := checker.PerpetualWeakExclusion(log, g, "px", end); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestWaitFree: correct diners never starve, even when an eater crashes in
// its critical section (the coordinator releases it).
func TestWaitFree(t *testing.T) {
	g := graph.Clique(4)
	for _, seed := range []int64{4, 5} {
		log, end := runPWX(g, seed, map[sim.ProcID]sim.Time{1: 4000, 2: 8000}, 40000)
		if starved := checker.WaitFreedom(log, "px", end-3000, end); len(starved) > 0 {
			t.Errorf("seed %d: %v", seed, starved)
		}
	}
}

// TestCrashWhileEatingReleasesNeighbors: a diner that dies mid-meal must
// not block its neighbors forever.
func TestCrashWhileEatingReleasesNeighbors(t *testing.T) {
	k, log, tbl := newTable(graph.Pair(0, 1), "px", 0, sim.WithSeed(9))
	// Diner 0 eats and never exits; we crash it mid-meal.
	dining.Drive(k, 0, tbl.Diner(0), dining.DriverConfig{ThinkMin: 1, ThinkMax: 1, NeverExit: true})
	dining.Drive(k, 1, tbl.Diner(1), dining.DriverConfig{ThinkMin: 10, ThinkMax: 50, EatMin: 5, EatMax: 10})
	k.CrashAt(0, 500)
	end := k.Run(20000)
	if starved := checker.WaitFreedom(log, "px", end-5000, end); len(starved) > 0 {
		t.Fatalf("neighbor starved behind a dead eater: %v", starved)
	}
	eats := log.Sessions("eating")[trace.SessionKey{Inst: "px", P: 1}]
	if len(eats) == 0 {
		t.Fatal("neighbor never ate")
	}
}

// TestCoordinatorMustBeExternal: using a diner as coordinator is a
// programming error, in either setting of the era.
func TestCoordinatorMustBeExternal(t *testing.T) {
	for _, until := range []sim.Time{0, era} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("era %d: expected panic", until)
				}
			}()
			New(sim.NewKernel(2), graph.Pair(0, 1), "px", 1, until)
		}()
	}
}

// TestFactoryRoundRobin: the factory cycles through coordinators, in
// either setting of the era.
func TestFactoryRoundRobin(t *testing.T) {
	for _, until := range []sim.Time{0, era} {
		k := sim.NewKernel(4)
		f := Factory([]sim.ProcID{2, 3}, until)
		t1 := f(k, graph.Pair(0, 1), "a")
		t2 := f(k, graph.Pair(0, 1), "b")
		if t1.Name() != "a" || t2.Name() != "b" {
			t.Fatalf("era %d: names mangled", until)
		}
	}
}

// TestLegalWhenEatingIsFinite: with well-behaved diners (finite meals) the
// trap is a correct WF-◇WX service — violations confined to the era and
// its drain-out, no starvation.
func TestLegalWhenEatingIsFinite(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		k, log, tbl := newTrap(seed)
		g := tbl.Graph()
		for _, p := range g.Nodes() {
			dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
				ThinkMin: 10, ThinkMax: 80, EatMin: 5, EatMax: 30,
			})
		}
		end := k.Run(30000)
		// Converged by: era end plus a generous drain-out margin.
		if _, err := checker.EventualWeakExclusion(log, g, "trap", era+2000, end); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if starved := checker.WaitFreedom(log, "trap", end-3000, end); len(starved) > 0 {
			t.Errorf("seed %d: %v", seed, starved)
		}
	}
}

// TestMistakeEraGrantsConcurrently: during the era, both neighbors can eat
// at once (that is what makes early mistakes possible).
func TestMistakeEraGrantsConcurrently(t *testing.T) {
	k, log, tbl := newTrap(4)
	g := tbl.Graph()
	// Both diners hungry immediately with long meals inside the era.
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			FirstHunger: 5, ThinkMin: 5, ThinkMax: 10, EatMin: 200, EatMax: 400,
		})
	}
	k.Run(era)
	rep := checker.Exclusion(log, g, "trap", era)
	if len(rep.Violations) == 0 {
		t.Fatal("no concurrent grants during the mistake era; the trap would never trap anything")
	}
}

// TestEternalEaterKeepsEscapeOpen: the heart of the Section 3 counter-
// example — an era eater that never exits lets its neighbor eat (and thus a
// flawed monitor suspect) forever, while the service stays formally within
// its contract (the contract says nothing about runs with infinite eating).
func TestEternalEaterKeepsEscapeOpen(t *testing.T) {
	k, log, tbl := newTrap(5)
	g := tbl.Graph()
	// Diner 1 grabs its critical section early and never exits.
	dining.Drive(k, 1, tbl.Diner(1), dining.DriverConfig{FirstHunger: 5, NeverExit: true})
	// Diner 0 keeps coming back.
	dining.Drive(k, 0, tbl.Diner(0), dining.DriverConfig{
		ThinkMin: 20, ThinkMax: 60, EatMin: 5, EatMax: 15,
	})
	end := k.Run(40000)
	// Diner 0 must keep eating deep into the post-era suffix.
	eats := log.Sessions("eating")[trace.SessionKey{Inst: "trap", P: 0}]
	late := 0
	for _, iv := range eats {
		if iv.Start > end*3/4 {
			late++
		}
	}
	if late < 3 {
		t.Fatalf("escape clause closed: only %d late meals for the witness-side diner", late)
	}
	// And those meals overlap the eternal eater: exclusion never converges.
	rep := checker.Exclusion(log, g, "trap", end)
	if rep.LastViolation < end*3/4 {
		t.Fatalf("violations stopped at %d (end %d); the trap failed to trap", rep.LastViolation, end)
	}
}

// TestPostEraStrictAmongFreshDiners: two diners that both start eating
// after the era are never scheduled together.
func TestPostEraStrictAmongFreshDiners(t *testing.T) {
	k, log, tbl := newTrap(6)
	g := tbl.Graph()
	for _, p := range g.Nodes() {
		dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
			FirstHunger: era + 100, ThinkMin: 5, ThinkMax: 30, EatMin: 10, EatMax: 40,
		})
	}
	end := k.Run(30000)
	if rep, err := checker.PerpetualWeakExclusion(log, g, "trap", end); err != nil {
		t.Fatalf("post-era diners overlapped: %v", rep.Violations)
	}
}

// TestGuardHasNoSideEffect: judging the grant guard leaves the books as
// they were. A crashed eater stays booked and stops blocking; a guard that
// unbooked it would change state each time a runtime judged it.
func TestGuardHasNoSideEffect(t *testing.T) {
	for _, until := range []sim.Time{0, era} {
		k, _, tbl := newTable(graph.Pair(0, 1), "px", until)
		k.CrashAt(1, until+1) // past the era, where bookings block
		k.Run(until + 1)
		c := tbl.coord
		c.eating[1] = booking{at: until, seq: 1}
		c.hungry = []request{{p: 0, seq: 1}}
		for i := 0; i < 2; i++ {
			if !c.canGrant() {
				t.Fatalf("era %d, call %d: a crashed eater blocks its neighbour", until, i)
			}
			if b, ok := c.eating[1]; !ok || b != (booking{at: until, seq: 1}) || len(c.eating) != 1 {
				t.Fatalf("era %d, call %d: the guard changed the books to %v", until, i, c.eating)
			}
		}
	}
}
