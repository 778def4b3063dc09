package dining_test

import (
	"reflect"
	"testing"

	"repro/internal/dining"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeDiner is an in-process diner whose grants are driven by the test.
type fakeDiner struct {
	*dining.Core
}

func newFake(k *sim.Kernel, p sim.ProcID) *fakeDiner {
	return &fakeDiner{Core: dining.NewCore(k, p, "fake")}
}

func (f *fakeDiner) Hungry() { f.Set(dining.Hungry) }
func (f *fakeDiner) Exit()   { f.Set(dining.Exiting) }

func TestStateStrings(t *testing.T) {
	want := map[dining.State]string{
		dining.Thinking: "thinking",
		dining.Hungry:   "hungry",
		dining.Eating:   "eating",
		dining.Exiting:  "exiting",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d stringifies to %q", int(s), s.String())
		}
	}
	if dining.State(9).String() != "state(9)" {
		t.Errorf("out of range: %q", dining.State(9).String())
	}
}

func TestCoreTransitionsAndRecords(t *testing.T) {
	log := &trace.Log{}
	k := sim.NewKernel(1, sim.WithTracer(log))
	c := dining.NewCore(k, 0, "tbl")
	if c.State() != dining.Thinking {
		t.Fatal("fresh core should think")
	}
	seen := []dining.State{}
	c.OnChange(func(s dining.State) { seen = append(seen, s) })
	k.After(0, 1, func() {
		c.Set(dining.Hungry)
		c.Set(dining.Eating)
		c.Set(dining.Exiting)
		c.Set(dining.Thinking)
	})
	k.Run(100)
	if want := []dining.State{dining.Hungry, dining.Eating, dining.Exiting, dining.Thinking}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("OnChange saw %v, want %v", seen, want)
	}
	if len(log.Records) != 4 {
		t.Fatalf("emitted %d records", len(log.Records))
	}
	if log.Records[2].Note != "exiting" || log.Records[2].Inst != "tbl" {
		t.Fatalf("bad record: %+v", log.Records[2])
	}
}

func TestIllegalTransitionPanics(t *testing.T) {
	cases := [][2]dining.State{
		{dining.Thinking, dining.Eating},
		{dining.Thinking, dining.Exiting},
		{dining.Hungry, dining.Thinking},
		{dining.Hungry, dining.Exiting},
		{dining.Eating, dining.Thinking},
		{dining.Eating, dining.Hungry},
		{dining.Exiting, dining.Eating},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("transition %v->%v did not panic", c[0], c[1])
				}
			}()
			k := sim.NewKernel(1)
			core := dining.NewCore(k, 0, "t")
			// Walk to the source state legally.
			walk := map[dining.State][]dining.State{
				dining.Thinking: {},
				dining.Hungry:   {dining.Hungry},
				dining.Eating:   {dining.Hungry, dining.Eating},
				dining.Exiting:  {dining.Hungry, dining.Eating, dining.Exiting},
			}
			for _, s := range walk[c[0]] {
				core.Set(s)
			}
			core.Set(c[1])
		}()
	}
}

// TestDrive: the synthetic client cycles a fake diner through the expected
// number of meals and stops.
func TestDrive(t *testing.T) {
	log := &trace.Log{}
	k := sim.NewKernel(1, sim.WithTracer(log))
	f := newFake(k, 0)
	// Service side: grant immediately, complete exits immediately.
	k.AddAction(0, "grant", func() bool { return f.State() == dining.Hungry }, func() { f.Set(dining.Eating) })
	k.AddAction(0, "exitd", func() bool { return f.State() == dining.Exiting }, func() { f.Set(dining.Thinking) })
	dining.Drive(k, 0, f, dining.DriverConfig{
		ThinkMin: 5, ThinkMax: 10, EatMin: 3, EatMax: 6, Meals: 4,
	})
	k.Run(100000)
	eat := log.Sessions("eating")[trace.SessionKey{Inst: "fake", P: 0}]
	if len(eat) != 4 {
		t.Fatalf("drove %d meals, want 4", len(eat))
	}
	for _, iv := range eat {
		if !iv.Closed() {
			t.Fatal("driver left a meal open")
		}
		if d := iv.End - iv.Start; d < 3 {
			t.Fatalf("meal too short: %v", iv)
		}
	}
}

// TestDriveNeverExit: the NeverExit client eats once and stays.
func TestDriveNeverExit(t *testing.T) {
	log := &trace.Log{}
	k := sim.NewKernel(1, sim.WithTracer(log))
	f := newFake(k, 0)
	k.AddAction(0, "grant", func() bool { return f.State() == dining.Hungry }, func() { f.Set(dining.Eating) })
	dining.Drive(k, 0, f, dining.DriverConfig{ThinkMin: 2, ThinkMax: 2, NeverExit: true})
	k.Run(5000)
	if f.State() != dining.Eating {
		t.Fatalf("never-exit client is %v, want eating", f.State())
	}
	eat := log.Sessions("eating")[trace.SessionKey{Inst: "fake", P: 0}]
	if len(eat) != 1 || eat[0].Closed() {
		t.Fatalf("sessions: %v", eat)
	}
}
