package live

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/rt/rttest"
)

// liveHost is a live runtime as an rttest host, on a short tick so that a
// clause's few hundred ticks take little wall time.
func liveHost(t *testing.T, n int, tr rt.Tracer) *rttest.Host {
	const tick = 200 * time.Microsecond
	r := New(Config{N: n, Tick: tick, Tracer: tr})
	return &rttest.Host{
		Runtime: r,
		Start:   r.Start,
		Advance: func(to rt.Time) {
			for now := r.Now(); now < to; now = r.Now() {
				time.Sleep(time.Duration(to-now) * tick)
			}
		},
		Crash:   r.Crash,
		Stop:    r.Stop,
		Counter: r.Counter,
		Invoke:  r.Invoke,
	}
}

func TestLiveContract(t *testing.T)      { rttest.Run(t, liveHost) }
func TestPacedLiveContract(t *testing.T) { rttest.Run(t, rttest.Paced(liveHost)) }

// TestLiveOnlyCounts: live counts yields, the bursts a permanently enabled
// action cuts at rt.StepBudget, and none of the kernel's own names.
func TestLiveOnlyCounts(t *testing.T) {
	r := New(Config{N: 1})
	var steps atomic.Int64
	r.AddAction(0, "busy", func() bool { return steps.Load() < 4*rt.StepBudget }, func() { steps.Add(1) })
	r.Start()
	eventually(t, "a yield", func() bool { return r.Counter("yields") > 0 })
	r.Stop()
	if c := r.Counter("msg.dropped.crash") + r.Counter("msg.sent:rttest"); c != 0 {
		t.Errorf("the live runtime counted %d under the kernel's own names", c)
	}
}
