package experiment

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining/forks"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// E17LossyLinks measures the reduction over fair-lossy links: the ◇P
// extraction (pair monitor over forks) runs on the retransmitting reliable
// transport while the link adversary drops up to 30% of wire messages, with
// duplication and reordering on. The paper's channel axioms are restored by
// the transport, so Theorem 2 must keep holding — the extracted oracle
// converges at every loss rate — and the price is measured as wire-message
// overhead against a reliable-channel baseline without the transport.
//
// Asserted: finite extraction convergence (no post-convergence mistakes,
// convergence point within the run) at every swept loss rate, and total wire
// overhead at 10% loss within 3x the baseline message count.
func E17LossyLinks(seed int64) *Table {
	t := &Table{
		ID:      "E17",
		Title:   "Extraction over fair-lossy links — convergence and retransmit overhead vs loss",
		Columns: []string{"loss", "dup", "reorder", "mistakes", "converged at", "wire msgs", "retransmits", "overhead", "verdict"},
	}
	const (
		horizon = 60000
		gst     = 800
	)

	type outcome struct {
		mistakes int64
		conv     sim.Time
		wire     int64
		retx     int64
		err      error
	}
	run := func(drop float64, withTransport bool) outcome {
		log := &trace.Log{}
		k := sim.NewKernel(2,
			sim.WithSeed(seed),
			sim.WithTracer(log),
			sim.WithDelay(sim.GSTDelay{GST: gst, PreMax: 120, PostMax: 8}),
		)
		// The oracle and the extraction are wired on net: the kernel, or the
		// transport over it.
		var net rt.Runtime = k
		var tr *transport.Reliable
		if withTransport {
			tr = transport.Enable(k, "rt", transport.Config{})
			net = tr
		}
		hb := detector.HeartbeatConfig{}
		if drop > 0 {
			// Lossy-deployment tuning: the oracle's timeout must dominate the
			// retransmission delay of a dropped heartbeat (cf. chaos.buildBox).
			hb = detector.HeartbeatConfig{Timeout: 240, Bump: 160}
			plan := sim.LinkPlan{Name: "e17", Drop: drop, Dup: 0.1, ReorderMax: 12}
			if err := plan.Apply(k); err != nil {
				return outcome{err: err}
			}
		}
		native := detector.NewHeartbeat(net, "native", hb)
		core.NewPairMonitor(net, 0, 1, forks.Factory(native, forks.Config{}), "xp")
		end := k.Run(horizon)
		rep, err := checker.EventualStrongAccuracy(log, "xp", [][2]sim.ProcID{{0, 1}}, true, end*3/4)
		out := outcome{
			mistakes: int64(rep.Mistakes),
			conv:     rep.Convergence,
			wire:     k.Counter("msg.sent"),
			err:      err,
		}
		if tr != nil {
			out.retx = tr.Counter("transport.retransmit")
		}
		return out
	}

	base := run(0, false)
	if base.err != nil {
		t.Failures = append(t.Failures, fmt.Sprintf("reliable baseline: %v", base.err))
	}
	t.Rows = append(t.Rows, []string{
		"0% (baseline)", "-", "-", itoa(base.mistakes), convStr(base.conv),
		itoa(base.wire), "-", "1.00x", verdictOf(base.err),
	})

	for _, drop := range []float64{0, 0.05, 0.10, 0.20, 0.30} {
		o := run(drop, true)
		if o.err != nil {
			t.Failures = append(t.Failures, fmt.Sprintf("loss=%.2f: %v", drop, o.err))
		}
		overhead := float64(o.wire) / float64(base.wire)
		if drop == 0.10 && overhead > 3 {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"wire overhead %.2fx at 10%% loss exceeds the 3x budget (%d vs %d messages)",
				overhead, o.wire, base.wire))
		}
		dup, ro := "0.10", "12"
		if drop == 0 {
			dup, ro = "0", "0"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", drop*100), dup, ro, itoa(o.mistakes), convStr(o.conv),
			itoa(o.wire), itoa(o.retx), fmt.Sprintf("%.2fx", overhead), verdictOf(o.err),
		})
	}
	t.Notes = append(t.Notes,
		"baseline row: reliable channels, no transport; all other rows run over internal/transport",
		"overhead is total wire messages (data+acks+retransmits+heartbeats) vs the baseline run",
		"convergence must be finite at every loss rate: the transport restores the channel axioms Theorem 2 assumes")
	return t
}

func convStr(c sim.Time) string {
	if c == sim.Never {
		return "never suspected falsely"
	}
	return itoa(int64(c))
}

func verdictOf(err error) string {
	if err != nil {
		return err.Error()
	}
	return "ok"
}
