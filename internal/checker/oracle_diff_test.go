package checker_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/sim"
	"repro/internal/trace"
)

type oracleCheck func(*trace.Log, string, [][2]sim.ProcID, bool, sim.Time) (checker.OracleReport, error)

// oracleChecks pairs each monitor-backed check with its batch definition.
var oracleChecks = []struct {
	name     string
	got, ref oracleCheck
}{
	{"strong completeness", checker.StrongCompleteness, checker.StrongCompletenessHistory},
	{"eventual strong accuracy", checker.EventualStrongAccuracy, checker.EventualStrongAccuracyHistory},
	{"trusting accuracy", checker.TrustingAccuracy, checker.TrustingAccuracyHistory},
}

// atTick masks the times in a check's error: the monitor names the last
// offending transition of the failing pair, the history the first.
var atTick = regexp.MustCompile(`t=\d+`)

// sameOracle fails unless the OracleMonitor-backed checks and their batch
// definitions (export_test.go) agree on l, ending at end: at bounds from the
// start to the end of the run, on each check's verdict, failing pair and
// rule, and on the report's aggregates; and on QoS over [0, end). It
// reports whether l has both a crash and a false suspicion.
func sameOracle(t *testing.T, what string, l *trace.Log, inst string, pairs [][2]sim.ProcID, initialSuspect bool, end sim.Time) bool {
	t.Helper()
	for _, bound := range []sim.Time{0, end / 2, end - end/4, end} {
		for _, c := range oracleChecks {
			got, gerr := c.got(l, inst, pairs, initialSuspect, bound)
			want, werr := c.ref(l, inst, pairs, initialSuspect, bound)
			if (gerr == nil) != (werr == nil) || gerr != nil && atTick.ReplaceAllString(gerr.Error(), "") != atTick.ReplaceAllString(werr.Error(), "") {
				t.Fatalf("%s, %s at bound %d: verdicts differ\n got %v\nwant %v", what, c.name, bound, gerr, werr)
			}
			if got.Mistakes != want.Mistakes || got.Convergence != want.Convergence || !reflect.DeepEqual(got.DetectionLatency, want.DetectionLatency) {
				t.Fatalf("%s, %s: report differs\n got mistakes=%d convergence=%d latency=%v\nwant mistakes=%d convergence=%d latency=%v",
					what, c.name, got.Mistakes, got.Convergence, got.DetectionLatency, want.Mistakes, want.Convergence, want.DetectionLatency)
			}
		}
	}
	got := checker.MeasureQoS(l, inst, pairs, initialSuspect, end)
	if want := checker.MeasureQoSHistory(l, inst, pairs, initialSuspect, end); got != want {
		t.Fatalf("%s: QoS differs\n got %v\nwant %v", what, got, want)
	}
	return got.MistakeCount > 0 && len(l.CrashTimes()) > 0
}

// randomOracleLog is a random output history of oracle "o" over four
// processes, ending by randomHorizon: suspect and trust records (repeats
// included), some of another instance, several per tick, and now and then a
// crash or a recovery.
func randomOracleLog(seed int64) *trace.Log {
	rng := rand.New(rand.NewSource(seed))
	l := &trace.Log{}
	for now := sim.Time(0); now < randomHorizon; now += sim.Time(rng.Intn(3)) {
		p := sim.ProcID(rng.Intn(4))
		q := (p + 1 + sim.ProcID(rng.Intn(3))) % 4
		switch r := rng.Intn(200); {
		case r < 95:
			l.Trace(sim.Record{T: now, P: p, Kind: trace.KindSuspect, Inst: "o", Peer: q})
		case r < 190:
			l.Trace(sim.Record{T: now, P: p, Kind: trace.KindTrust, Inst: "o", Peer: q})
		case r < 196:
			l.Trace(sim.Record{T: now, P: p, Kind: trace.KindSuspect, Inst: "u", Peer: q})
		case r < 198:
			mark(l, now, p, trace.KindCrash)
		default:
			mark(l, now, p, trace.KindRecover)
		}
	}
	return l
}

// fuzzOracleLog decodes bytes into a dense four-process stream: per byte,
// the top two bits set advance the clock a tick, the next four pick the
// record (suspect, trust, another instance's suspect, crash or recover) and
// the target, and the low two the process. The first byte picks how far
// past the last record the horizon lies (0–2) and, in bit 2, the initial
// output.
func fuzzOracleLog(data []byte) (l *trace.Log, initialSuspect bool, horizon sim.Time) {
	l = &trace.Log{}
	now := sim.Time(0)
	for _, b := range data[1:] {
		if b>>6 == 3 {
			now++
		}
		p := sim.ProcID(b & 3)
		op := b >> 2 & 15
		q := (p + 1 + sim.ProcID(op%3)) % 4
		switch {
		case op < 6:
			l.Trace(sim.Record{T: now, P: p, Kind: trace.KindSuspect, Inst: "o", Peer: q})
		case op < 12:
			l.Trace(sim.Record{T: now, P: p, Kind: trace.KindTrust, Inst: "o", Peer: q})
		case op == 12:
			l.Trace(sim.Record{T: now, P: p, Kind: trace.KindSuspect, Inst: "u", Peer: q})
		case op < 15:
			mark(l, now, p, trace.KindCrash)
		default:
			mark(l, now, p, trace.KindRecover)
		}
	}
	return l, data[0]&4 != 0, now + sim.Time(data[0]%3)
}

// oracleCorpus seeds FuzzOracleMonitor; TestOracleMatchesHistory runs it
// too.
var oracleCorpus = [][]byte{
	{0, 0x00, 0xc1, 0x18, 0xf5, 0x02, 0xc7, 0x19},
	{5, 0x04, 0xc9, 0x35, 0x1a, 0xc2, 0x3d, 0xe0, 0x01},
	{1, 0x00, 0xf4, 0x18, 0x30, 0xc1, 0x3c, 0x07, 0xda},
	{6, 0x19, 0xcd, 0x31, 0x00, 0xc6, 0x36, 0xc2, 0x3f},
}

// TestOracleMatchesHistory pins the OracleMonitor-backed checks and QoS to
// the batch definitions (export_test.go): on every default campaign trace,
// on random output histories and on the fuzz corpus. At least one trace
// must have both a crash and a false suspicion, so the comparison is not
// vacuous.
func TestOracleMatchesHistory(t *testing.T) {
	both := 0
	t.Run("campaign", func(t *testing.T) {
		for _, spec := range chaos.DefaultCampaign(6000).Specs() {
			res := chaos.Execute(spec)
			if res.Log == nil {
				t.Fatalf("%s: no trace", spec.ID())
			}
			procs := make([]sim.ProcID, spec.N)
			for i := range procs {
				procs[i] = sim.ProcID(i)
			}
			for _, initialSuspect := range []bool{false, true} {
				if sameOracle(t, fmt.Sprintf("%s initial=%v", spec.ID(), initialSuspect), res.Log, "hb", checker.AllPairs(procs), initialSuspect, res.End) {
					both++
				}
			}
		}
	})
	pairs := checker.AllPairs([]sim.ProcID{0, 1, 2, 3})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 2000; seed++ {
			if sameOracle(t, fmt.Sprintf("seed %d", seed), randomOracleLog(seed), "o", pairs, seed%2 == 1, randomHorizon) {
				both++
			}
		}
	})
	t.Run("corpus", func(t *testing.T) {
		for _, data := range oracleCorpus {
			l, initialSuspect, horizon := fuzzOracleLog(data)
			sameOracle(t, fmt.Sprintf("%x", data), l, "o", pairs, initialSuspect, horizon)
		}
	})
	if both == 0 {
		t.Fatal("no trace had both a crash and a false suspicion: the comparison is vacuous")
	}
	t.Logf("%d traces with a crash and a false suspicion", both)
}

// TestOracleMonitorSteadyStateAllocs pins the monitor's bounded state: a
// stream of suspect and trust records, another instance's among them,
// costs no allocation however long it runs.
func TestOracleMonitorSteadyStateAllocs(t *testing.T) {
	m := checker.NewOracleMonitor("o", checker.AllPairs([]sim.ProcID{0, 1, 2, 3}), true)
	now := sim.Time(0)
	round := func() {
		for p := sim.ProcID(0); p < 4; p++ {
			q := (p + 1) % 4
			m.Trace(sim.Record{T: now, P: p, Kind: trace.KindTrust, Inst: "o", Peer: q})
			m.Trace(sim.Record{T: now, P: q, Kind: trace.KindSuspect, Inst: "u", Peer: p})
			now++
			m.Trace(sim.Record{T: now, P: p, Kind: trace.KindSuspect, Inst: "o", Peer: q})
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%.1f allocs per round, want 0", allocs)
	}
}

// FuzzOracleMonitor compares the monitor-backed checks and QoS with the
// batch definitions on fuzzOracleLog's dense streams.
func FuzzOracleMonitor(f *testing.F) {
	for _, data := range oracleCorpus {
		f.Add(data)
	}
	pairs := checker.AllPairs([]sim.ProcID{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		l, initialSuspect, horizon := fuzzOracleLog(data)
		sameOracle(t, fmt.Sprintf("%x", data), l, "o", pairs, initialSuspect, horizon)
	})
}
