package sim

import (
	"math/rand"
	"testing"
)

func validLinkPlan() LinkPlan {
	return LinkPlan{
		Name: "good", Drop: 0.2, Dup: 0.1, ReorderMax: 8,
		Links:   []LinkFault{{From: 0, To: -1, Drop: 0.5, Dup: 0}},
		Windows: []LossyWindow{{Start: 100, End: 200, Drop: 1, Side: []ProcID{0}}, {Start: 300, End: 350, Drop: 0.5}},
	}
}

func TestLinkPlanValidate(t *testing.T) {
	if err := validLinkPlan().Validate(3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := NoLinkFaults().Validate(3); err != nil {
		t.Fatalf("empty plan rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*LinkPlan)
	}{
		{"negative drop", func(p *LinkPlan) { p.Drop = -0.1 }},
		{"certain drop", func(p *LinkPlan) { p.Drop = 1 }},
		{"negative dup", func(p *LinkPlan) { p.Dup = -0.5 }},
		{"dup above one", func(p *LinkPlan) { p.Dup = 1.5 }},
		{"negative reorder", func(p *LinkPlan) { p.ReorderMax = -3 }},
		{"link from out of range", func(p *LinkPlan) { p.Links[0].From = 3 }},
		{"link to out of range", func(p *LinkPlan) { p.Links[0].To = -2 }},
		{"link drop certain", func(p *LinkPlan) { p.Links[0].Drop = 1 }},
		{"link dup negative", func(p *LinkPlan) { p.Links[0].Dup = -1 }},
		{"window inverted", func(p *LinkPlan) { p.Windows[0].End = p.Windows[0].Start }},
		{"window negative start", func(p *LinkPlan) { p.Windows[0].Start = -1 }},
		{"window drop above one", func(p *LinkPlan) { p.Windows[0].Drop = 1.01 }},
		{"window side out of range", func(p *LinkPlan) { p.Windows[0].Side = []ProcID{5} }},
		{"overlapping windows", func(p *LinkPlan) { p.Windows[1].Start = 150 }},
	}
	for _, tc := range cases {
		p := validLinkPlan()
		tc.mutate(&p)
		if err := p.Validate(3); err == nil {
			t.Errorf("%s: plan %v accepted", tc.name, p)
		}
	}
}

// TestLinkPlanApplyRejectsMalformed mirrors the FaultPlan contract: a
// malformed plan is an error and nothing is installed.
func TestLinkPlanApplyRejectsMalformed(t *testing.T) {
	k := NewKernel(2)
	bad := LinkPlan{Name: "bad", Drop: -1}
	if err := bad.Apply(k); err == nil {
		t.Fatal("malformed plan accepted")
	}
	if k.links != nil {
		t.Fatal("malformed plan was installed despite the error")
	}
}

// FuzzLinkPlanValidate cross-checks Validate against an independent
// statement of the rules: negative or super-unit probabilities, steady-state
// certain loss, out-of-range endpoints, malformed eras, and overlapping
// windows must be rejected; everything else must be accepted and then apply
// and run cleanly.
func FuzzLinkPlanValidate(f *testing.F) {
	f.Add(0.1, 0.1, int64(4), int8(0), int8(1), 0.3, int64(10), int64(20), int64(15), int64(30), 0.9)
	f.Add(-0.5, 0.0, int64(0), int8(-1), int8(-1), 0.0, int64(0), int64(0), int64(0), int64(0), 0.0)
	f.Add(0.99, 1.0, int64(100), int8(5), int8(2), 1.0, int64(5), int64(500), int64(400), int64(600), 1.0)
	f.Fuzz(func(t *testing.T, drop, dup float64, reorder int64, lFrom, lTo int8, lDrop float64,
		w1s, w1e, w2s, w2e int64, wDrop float64) {
		const n = 4
		plan := LinkPlan{
			Name: "fuzz", Drop: drop, Dup: dup, ReorderMax: Time(reorder),
			Links: []LinkFault{{From: ProcID(lFrom), To: ProcID(lTo), Drop: lDrop}},
			Windows: []LossyWindow{
				{Start: Time(w1s), End: Time(w1e), Drop: wDrop},
				{Start: Time(w2s), End: Time(w2e), Drop: wDrop, Side: []ProcID{0, 2}},
			},
		}
		probOK := func(p float64, allowOne bool) bool {
			if allowOne {
				return p >= 0 && p <= 1
			}
			return p >= 0 && p < 1
		}
		endpointOK := func(p ProcID) bool { return p >= -1 && int(p) < n }
		windowOK := func(w LossyWindow) bool {
			return w.Start >= 0 && w.End > w.Start && probOK(w.Drop, true)
		}
		lo, hi := plan.Windows[0], plan.Windows[1]
		if hi.Start < lo.Start {
			lo, hi = hi, lo
		}
		wantOK := probOK(drop, false) && probOK(dup, true) && reorder >= 0 &&
			endpointOK(plan.Links[0].From) && endpointOK(plan.Links[0].To) &&
			probOK(lDrop, false) && windowOK(plan.Windows[0]) && windowOK(plan.Windows[1]) &&
			hi.Start >= lo.End

		err := plan.Validate(n)
		if wantOK && err != nil {
			t.Fatalf("well-formed plan rejected: %v\nplan: %+v", err, plan)
		}
		if !wantOK && err == nil {
			t.Fatalf("malformed plan accepted: %+v", plan)
		}
		if err != nil {
			return
		}
		// An accepted plan must install and run without panicking.
		k := NewKernel(n, WithSeed(7))
		if err := plan.Apply(k); err != nil {
			t.Fatalf("validated plan failed to apply: %v", err)
		}
		for p := 0; p < n; p++ {
			p := ProcID(p)
			k.Handle(p, "m", func(Message) {})
		}
		k.After(0, 1, func() {
			for q := 1; q < n; q++ {
				k.Send(0, ProcID(q), "m", nil)
			}
		})
		k.Run(2000)
		sent := k.Counter("msg.sent")
		if got := k.Counter("msg.delivered") + k.Counter("msg.dropped") - k.Counter("link.duped"); got > sent {
			t.Fatalf("message accounting: delivered+dropped-duped=%d > sent=%d", got, sent)
		}
	})
}

// countingSource counts the values a rand.Rand draws from it.
type countingSource struct {
	rand.Source
	n int
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.Source.Int63()
}

// FuzzLinkArrive pins the arrival draw the kernel, live.Runtime and
// livechaos.Proxy share. For any plan Validate accepts and any (from, to,
// now), Arrive never duplicates a dropped message, lags a duplicate by 1..8
// ticks, always drops inside a Drop-1 window, and consumes exactly the draws
// the fixed order allows: one for the drop when DropProb > 0, one for the
// duplicate when the message survived and DupProb > 0, one for the lag of a
// duplicate. The campaign goldens and the live fault schedules rely on it.
func FuzzLinkArrive(f *testing.F) {
	f.Add(int64(1), 0.3, 0.2, int8(0), int8(1), 0.5, 1.0, int64(100), int64(200), 1.0, uint8(1), int64(150), uint8(0), uint8(1))
	f.Add(int64(7), 0.0, 1.0, int8(-1), int8(2), 0.0, 0.5, int64(0), int64(10), 0.5, uint8(0), int64(3), uint8(2), uint8(3))
	f.Add(int64(3), 0.9, 0.0, int8(3), int8(-1), 0.1, 0.0, int64(5), int64(6), 0.0, uint8(6), int64(5), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, drop, dup float64, lFrom, lTo int8, lDrop, lDup float64,
		ws, we int64, wDrop float64, side uint8, now int64, from, to uint8) {
		const n = 4
		w := LossyWindow{Start: Time(ws), End: Time(we), Drop: wDrop}
		for p := 0; p < n; p++ {
			if side&(1<<p) != 0 {
				w.Side = append(w.Side, ProcID(p))
			}
		}
		plan := LinkPlan{
			Name: "fuzz", Drop: drop, Dup: dup,
			Links:   []LinkFault{{From: ProcID(lFrom), To: ProcID(lTo), Drop: lDrop, Dup: lDup}},
			Windows: []LossyWindow{w},
		}
		if plan.Validate(n) != nil {
			return
		}
		src := &countingSource{Source: rand.NewSource(seed)}
		rng := rand.New(src)
		p, q, at := ProcID(from%n), ProcID(to%n), Time(now)
		for i := 0; i < 8; i++ {
			before := src.n
			dropped, dupAfter := plan.Arrive(rng, p, q, at)
			if dropped && dupAfter != 0 {
				t.Fatalf("dropped message duplicated %d ticks later", dupAfter)
			}
			if dupAfter != 0 && (dupAfter < 1 || dupAfter > 8) {
				t.Fatalf("duplicate lag %d outside [1, 8]", dupAfter)
			}
			if w.Drop == 1 && w.matches(p, q, at) && !dropped {
				t.Fatalf("message %d->%d at %d survived a Drop-1 window %+v", p, q, at, w)
			}
			want := 0
			if plan.DropProb(p, q, at) > 0 {
				want++
			}
			if !dropped && plan.DupProb(p, q) > 0 {
				want++
			}
			if dupAfter > 0 {
				want++
			}
			if got := src.n - before; got != want {
				t.Fatalf("Arrive drew %d values, the pinned order allows %d (dropped=%v dupAfter=%d)",
					got, want, dropped, dupAfter)
			}
		}
	})
}

// TestLinkDropAndCounterSplit: a lossy link loses roughly its share of
// messages, the legacy msg.dropped counter equals the sum of its split
// causes, and every perturbation leaves a trace record.
func TestLinkDropAndCounterSplit(t *testing.T) {
	k := NewKernel(3, WithSeed(5), WithDelay(FixedDelay{D: 2}))
	if err := (LinkPlan{Name: "lossy", Drop: 0.3, Dup: 0.2}).Apply(k); err != nil {
		t.Fatal(err)
	}
	var got int
	k.Handle(1, "m", func(Message) { got++ })
	k.Handle(2, "m", func(Message) {})
	const sends = 2000
	for i := 0; i < sends; i++ {
		k.After(0, Time(1+i), func() {
			k.Send(0, 1, "m", nil)
			k.Send(0, 2, "m", nil) // 2 crashes mid-run: crash-drops
		})
	}
	k.CrashAt(2, 100)
	k.Run(sends + 1000)

	if k.Counter("msg.dropped") != k.Counter("msg.dropped.crash")+k.Counter("msg.dropped.link") {
		t.Fatalf("msg.dropped=%d is not the sum of crash=%d and link=%d",
			k.Counter("msg.dropped"), k.Counter("msg.dropped.crash"), k.Counter("msg.dropped.link"))
	}
	if k.Counter("msg.dropped.crash") == 0 {
		t.Fatal("expected crash-drops on the link to the crashed process")
	}
	if k.Counter("link.dropped") != k.Counter("msg.dropped.link") {
		t.Fatalf("link.dropped=%d != msg.dropped.link=%d",
			k.Counter("link.dropped"), k.Counter("msg.dropped.link"))
	}
	frac := float64(k.Counter("link.dropped")) / float64(2*sends)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("drop fraction %.3f far from configured 0.3", frac)
	}
	if k.Counter("link.duped") == 0 {
		t.Fatal("no duplicates under a dup plan")
	}
	if got >= sends || got < sends/2 {
		t.Fatalf("receiver got %d of %d (dup adds, drop removes ~30%%)", got, sends)
	}
	var dropEvents, dupEvents int64
	for _, r := range k.Tail() {
		if r.Kind == KindLink {
			switch r.Note {
			case "drop":
				dropEvents++
			case "dup":
				dupEvents++
			}
		}
	}
	if dropEvents == 0 && dupEvents == 0 {
		t.Fatal("no link trace events in the kernel tail")
	}
}

// TestLossyWindowIsTransient: during the window messages between the sides
// are all lost; before and after they flow.
func TestLossyWindowIsTransient(t *testing.T) {
	k := NewKernel(2, WithSeed(3), WithDelay(FixedDelay{D: 1}))
	plan := LinkPlan{Name: "partition", Windows: []LossyWindow{{Start: 100, End: 200, Drop: 1, Side: []ProcID{0}}}}
	if err := plan.Apply(k); err != nil {
		t.Fatal(err)
	}
	var arrivals []Time
	k.Handle(1, "m", func(Message) { arrivals = append(arrivals, k.Now()) })
	for i := 0; i < 300; i++ {
		k.After(0, Time(1+i), func() { k.Send(0, 1, "m", nil) })
	}
	k.Run(400)
	var inWindow, outside int
	for _, at := range arrivals {
		if at >= 100 && at < 200 {
			inWindow++
		} else {
			outside++
		}
	}
	if inWindow != 0 {
		t.Fatalf("%d messages delivered inside the total-loss window", inWindow)
	}
	if outside < 150 {
		t.Fatalf("only %d messages delivered outside the window", outside)
	}
}

// TestReorderExtraBoundsDelay: the reorder adversary stretches in-transit
// times but never below the delay policy's own minimum.
func TestReorderExtraBoundsDelay(t *testing.T) {
	k := NewKernel(2, WithSeed(9), WithDelay(FixedDelay{D: 3}))
	if err := (LinkPlan{Name: "ro", ReorderMax: 10}).Apply(k); err != nil {
		t.Fatal(err)
	}
	sentAt := make(map[int]Time)
	var spread bool
	k.Handle(1, "m", func(m Message) {
		d := k.Now() - sentAt[m.Payload.(int)]
		if d < 3 || d > 13 {
			t.Errorf("in-transit time %d outside [3, 13]", d)
		}
		if d > 3 {
			spread = true
		}
	})
	for i := 0; i < 200; i++ {
		i := i
		k.After(0, Time(1+i), func() {
			sentAt[i] = k.Now()
			k.Send(0, 1, "m", i)
		})
	}
	k.Run(500)
	if !spread {
		t.Fatal("reorder adversary never stretched a delay")
	}
}

// TestNoLinkPlanIsByteIdentical: installing an empty plan changes nothing —
// the adversary must consume no randomness when disabled, preserving every
// existing seeded trace.
func TestNoLinkPlanIsByteIdentical(t *testing.T) {
	run := func(install bool) int64 {
		k := NewKernel(3, WithSeed(11))
		if install {
			if err := NoLinkFaults().Apply(k); err != nil {
				t.Fatal(err)
			}
		}
		k.Handle(1, "m", func(Message) {})
		for i := 0; i < 50; i++ {
			k.After(0, Time(1+i*3), func() { k.Send(0, 1, "m", nil) })
		}
		k.Run(1000)
		return int64(k.Rand().Int63())
	}
	if a, b := run(false), run(true); a != b {
		t.Fatal("empty link plan perturbed the deterministic run")
	}
}
