package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining/forks"
	"repro/internal/rt"
	"repro/internal/sim"
)

// TestExtractorWiringAllocs ratchets what it costs to wire the extraction:
// every ordered pair is two two-diner fork tables plus the witness and
// subject threads of Algs. 1 and 2, all built before the first step runs.
// The count is net of the kernel and the heartbeat the tables consult, and
// taken after a warm-up build, so the process-wide port table already holds
// every name.
func TestExtractorWiringAllocs(t *testing.T) {
	const n = 8
	procs := make([]rt.ProcID, n)
	for i := range procs {
		procs[i] = rt.ProcID(i)
	}
	boot := func(extract bool) func() {
		return func() {
			k := sim.NewKernel(n)
			hb := detector.NewHeartbeat(k, "hb", detector.HeartbeatConfig{})
			paced := rt.Paced(k)
			if extract {
				core.NewExtractor(paced, procs, forks.Factory(hb, forks.Config{}), "ex")
			}
		}
	}
	base := testing.AllocsPerRun(5, boot(false))
	full := testing.AllocsPerRun(5, boot(true))
	perPair := (full - base) / (n * (n - 1))
	const budget = 100
	t.Logf("%.0f allocations per ordered pair (%.0f in all, %.0f for kernel and heartbeat)", perPair, full, base)
	if perPair > budget {
		t.Errorf("wiring the extraction costs %.0f allocations per ordered pair, want ≤ %d", perPair, budget)
	}
}
