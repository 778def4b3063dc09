package rt

// Action is one guarded command of a process's action system.
type Action struct {
	// Name is a label for whoever reads a process's action list; no
	// runtime reads it, so a module may pass a constant.
	Name  string
	Guard func() bool
	Body  func()
}

// Actions is one process's action system under the weakly fair rotation both
// runtimes step it by: Step scans from the slot after the last action run and
// runs the first action whose guard holds, so an action whose guard stays
// true runs within len steps of the set. The zero value is an empty set. Only
// the owning process touches a set once its runtime runs.
type Actions struct {
	list []Action
	rot  int // in [0, len(list)]: the slot after the last action run
}

// Add appends a to the rotation.
func (s *Actions) Add(a Action) { s.list = append(s.list, a) }

// Enabled reports whether some guard holds. Guards are pure, so evaluating
// them speculatively is safe.
func (s *Actions) Enabled() bool {
	for i := range s.list {
		if s.list[i].Guard() {
			return true
		}
	}
	return false
}

// Step runs the first enabled action at or after the cursor, wrapping around,
// moves the cursor to the slot after it and reports whether anything ran.
// With nothing enabled it runs nothing and leaves the cursor where it was.
func (s *Actions) Step() bool {
	n := len(s.list)
	idx := s.rot
	for i := 0; i < n; i++ {
		if idx >= n {
			idx -= n
		}
		if a := &s.list[idx]; a.Guard() {
			s.rot = idx + 1
			a.Body()
			return true
		}
		idx++
	}
	return false
}

// Rewind points the cursor back at the first action, where a fresh process
// starts.
func (s *Actions) Rewind() { s.rot = 0 }

// StepBudget bounds how many consecutive rounds — one queued job and one
// Step each — a real-time runtime runs at one process before it lets go of
// the processor, so a process that always has work (a message flood, an
// action cycle wired unpaced) shares its core instead of monopolizing it.
// The simulator needs no such bound: its steps occupy simulated time.
const StepBudget = 64

// Paced returns a view of k for wiring protocols whose action cycles never
// disable themselves — the extraction's witness and subject threads dine
// forever. Everything is k's own except AddAction: the actions registered
// through the view form a second rotation per process, which k steps through
// one gate action of its own, at most once per tick. So a perpetual cycle
// takes at most one step per tick at each process, and k's other actions at
// that process wait behind at most one of its steps.
//
// Each call returns a separate view with its own tempo; wire a protocol
// through one view.
func Paced(k Runtime) Runtime {
	return &paced{Runtime: k, sets: make([]*Actions, k.N()), last: make([]Time, k.N())}
}

type paced struct {
	Runtime
	sets []*Actions // by process; nil until its first paced action
	last []Time     // by process: the tick of its last paced step
}

// AddAction adds the action to p's paced rotation. The first one also
// registers p's gate on the runtime underneath: it is enabled once the clock
// has moved past p's last paced step and some paced guard holds, steps the
// rotation, and arms a one-tick timer so that p wakes for the next tick.
func (v *paced) AddAction(p ProcID, name string, guard func() bool, body func()) {
	set := v.sets[p]
	if set == nil {
		set = new(Actions)
		v.sets[p], v.last[p] = set, Never
		v.Runtime.AddAction(p, "paced", func() bool {
			return v.Now() > v.last[p] && set.Enabled()
		}, func() {
			v.last[p] = v.Now()
			set.Step()
			v.After(p, 1, noop)
		})
	}
	set.Add(Action{Name: name, Guard: guard, Body: body})
}

func noop() {}
