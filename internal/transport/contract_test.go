package transport_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/rt/rttest"
	"repro/internal/sim"
	"repro/internal/transport"
)

// reliable puts the transport on under, which h drives, over a link plan
// that eats 30% of the messages, and reads its counts beside under's.
func reliable(t *testing.T, under interface {
	rt.Runtime
	Counter(string) int64
}, links func(sim.LinkPlan) error, h *rttest.Host) *rttest.Host {
	if err := links(sim.LinkPlan{Name: "lossy", Drop: 0.3}); err != nil {
		t.Fatal(err)
	}
	tr := transport.Enable(under, "rt", transport.Config{})
	h.Runtime, h.Lossy = tr, true
	h.Counter = func(name string) int64 {
		if strings.HasPrefix(name, "transport.") {
			return tr.Counter(name)
		}
		return under.Counter(name)
	}
	return h
}

func TestReliableKernelContract(t *testing.T) {
	rttest.Run(t, func(t *testing.T, n int, tr rt.Tracer) *rttest.Host {
		k := sim.NewKernel(n, sim.WithSeed(3), sim.WithTracer(tr))
		return reliable(t, k, func(p sim.LinkPlan) error { return p.Apply(k) }, &rttest.Host{
			Start:   func() {},
			Advance: func(to rt.Time) { k.Run(to) },
			Crash:   func(p rt.ProcID) { k.CrashWhen(p, "", func() bool { return true }) },
			Stop:    k.Stop,
			Exact:   true,
		})
	})
}

func TestReliableLiveContract(t *testing.T) {
	const tick = 200 * time.Microsecond
	rttest.Run(t, func(t *testing.T, n int, tr rt.Tracer) *rttest.Host {
		r := live.New(live.Config{N: n, Tick: tick, Seed: 3, Tracer: tr})
		return reliable(t, r, r.SetLinks, &rttest.Host{
			Start: r.Start,
			Advance: func(to rt.Time) {
				for now := r.Now(); now < to; now = r.Now() {
					time.Sleep(time.Duration(to-now) * tick)
				}
			},
			Crash:  r.Crash,
			Stop:   r.Stop,
			Invoke: r.Invoke,
		})
	})
}
