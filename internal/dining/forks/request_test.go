package forks_test

import (
	"fmt"
	"testing"

	"repro/internal/detector"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// afterCount is a runtime that counts the timers scheduled through it.
type afterCount struct {
	rt.Runtime
	n *int
}

func (a afterCount) After(p rt.ProcID, d rt.Time, fn func()) {
	*a.n++
	a.Runtime.After(p, d, fn)
}

// TestNoTimers: the table runs on messages alone. Over a driven,
// crash-free run it schedules no timer, on a plain or a fair table: every
// request is answered once, so nothing needs re-sending. The drivers' own
// timers go to the kernel directly and are not counted.
func TestNoTimers(t *testing.T) {
	for _, fair := range []int{0, 2} {
		t.Run(fmt.Sprintf("fair%d", fair), func(t *testing.T) {
			g := graph.Clique(4)
			k := sim.NewKernel(g.N(), sim.WithSeed(1), sim.WithDelay(sim.UniformDelay{Min: 1, Max: 10}))
			timers := 0
			var mute detector.Scripted
			tbl := forks.New(afterCount{k, &timers}, g, "fk", &mute, forks.Config{Fair: fair})
			meals := 0
			for _, p := range g.Nodes() {
				tbl.Diner(p).OnEat(func() { meals++ })
				dining.Drive(k, p, tbl.Diner(p), dining.DriverConfig{
					ThinkMin: 10, ThinkMax: 60, EatMin: 5, EatMax: 20, Meals: 30,
				})
			}
			const horizon = 1_000_000
			if end := k.Run(horizon); end >= horizon {
				t.Fatalf("no quiescence by t=%d", horizon)
			}
			if want := 30 * g.N(); meals != want {
				t.Fatalf("%d meals, want %d", meals, want)
			}
			if timers != 0 {
				t.Fatalf("the table scheduled %d timers, want none", timers)
			}
		})
	}
}

// slowFirst is the kernel with the first message that `is` matches held
// back `by` ticks.
type slowFirst struct {
	*sim.Kernel
	is     func(from sim.ProcID, payload any) bool
	by     sim.Time
	slowed bool
}

func (s *slowFirst) Send(from, to sim.ProcID, port rt.Port, payload any) {
	if !s.slowed && s.is(from, payload) {
		s.slowed = true
		s.Kernel.After(from, s.by, func() { s.Kernel.Send(from, to, port, payload) })
		return
	}
	s.Kernel.Send(from, to, port, payload)
}

// TestOlderRequestAheadOfFork: a request that reaches a hungry diner ahead
// of the fork it chases is decided when the fork arrives. Diner 1 eats once
// on a false suspicion of 0, so the fork 0 yields it is still on its way
// when 0, now hungry with the older claim, asks for it back. Diner 1, hungry
// again by then, must hand the fork over in the tick it lands, not eat on
// it, with no later event to prompt it.
//
//	t=10  1 hungry (ts 1), eats on suspicion; 0 yields at t=11, fork lands t=31
//	t=13  0 hungry (ts 2), asks 1: remembered, 1 does not hold the fork
//	t=20  1 hungry (ts 3), asks 0
//	t=31  the fork lands at 1: (2, 0) is older than (3, 1), so 1 yields it
func TestOlderRequestAheadOfFork(t *testing.T) {
	g := graph.Pair(0, 1)
	log := &trace.Log{}
	k := sim.NewKernel(2, sim.WithSeed(1), sim.WithTracer(log), sim.WithDelay(sim.FixedDelay{D: 1}))
	var oracle detector.Scripted
	oracle.Set(1, 0, true)
	var moves []sim.Time // ticks at which 1 gains or loses the fork
	tbl := forks.New(&slowFirst{Kernel: k, is: func(_ sim.ProcID, p any) bool { return forks.IsFork(p) }, by: 19}, g, "fk", &oracle, forks.Config{
		OnFork: func(p, q rt.ProcID, hold bool) {
			if p == 1 {
				moves = append(moves, k.Now())
			}
		},
	})
	for _, p := range g.Nodes() {
		d := tbl.Diner(p)
		d.OnEat(func() { k.After(p, 2, d.Exit) })
	}
	k.After(1, 10, tbl.Diner(1).Hungry)
	k.After(1, 15, func() { oracle.Set(1, 0, false) })
	k.After(0, 13, tbl.Diner(0).Hungry)
	k.After(1, 20, tbl.Diner(1).Hungry)
	k.Run(1000)

	if len(moves) < 2 || moves[0] != 31 || moves[1] != moves[0] {
		t.Fatalf("diner 1 gained and lost the fork at ticks %v, want both at t=31", moves)
	}
	eats := log.Sessions("eating")
	first0 := eats[trace.SessionKey{Inst: "fk", P: 0}]
	meals1 := eats[trace.SessionKey{Inst: "fk", P: 1}]
	if len(first0) != 1 || len(meals1) != 2 || meals1[1].Start < first0[0].Start {
		t.Fatalf("meals: 0 %v, 1 %v; want 0's one meal before 1's second", first0, meals1)
	}
}
