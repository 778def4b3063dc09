package checker

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestMeasureQoSDetection(t *testing.T) {
	l := &trace.Log{}
	l.Trace(rec(100, 1, trace.KindCrash, "", "", -1))
	l.Trace(rec(150, 0, trace.KindSuspect, "o", "", 1))
	q := MeasureQoS(l, "o", [][2]sim.ProcID{{0, 1}}, false, 1000)
	if q.DetectionTime != 50 {
		t.Fatalf("detection=%d want 50", q.DetectionTime)
	}
	if q.MistakeCount != 0 {
		t.Fatalf("mistakes=%d want 0", q.MistakeCount)
	}
	// Accuracy: wrong only on [100, 150), after the crash and before the
	// suspicion.
	if q.QueryAccurate != 0.95 {
		t.Fatalf("accuracy=%v want 0.95", q.QueryAccurate)
	}
}

func TestMeasureQoSMistakes(t *testing.T) {
	l := &trace.Log{}
	// False suspicion [200, 260) of a live target; initial trust.
	l.Trace(rec(200, 0, trace.KindSuspect, "o", "", 1))
	l.Trace(rec(260, 0, trace.KindTrust, "o", "", 1))
	q := MeasureQoS(l, "o", [][2]sim.ProcID{{0, 1}}, false, 1000)
	if q.MistakeCount != 1 || q.MistakeDurationTotal != 60 || q.MistakeDurationMax != 60 {
		t.Fatalf("got %+v", q)
	}
}

func TestMeasureQoSInitialSuspicion(t *testing.T) {
	l := &trace.Log{}
	l.Trace(rec(40, 0, trace.KindTrust, "o", "", 1))
	q := MeasureQoS(l, "o", [][2]sim.ProcID{{0, 1}}, true, 1000)
	if q.MistakeCount != 1 || q.MistakeDurationTotal != 40 {
		t.Fatalf("initial suspicion not measured: %+v", q)
	}
}

func TestMeasureQoSSuspicionOfDeadIsNotMistake(t *testing.T) {
	l := &trace.Log{}
	l.Trace(rec(100, 1, trace.KindCrash, "", "", -1))
	// Suspicion starting before the crash is a mistake only until t=100.
	l.Trace(rec(80, 0, trace.KindSuspect, "o", "", 1))
	q := MeasureQoS(l, "o", [][2]sim.ProcID{{0, 1}}, false, 1000)
	if q.MistakeDurationTotal != 20 {
		t.Fatalf("dur=%d want 20 (mistake ends at the crash)", q.MistakeDurationTotal)
	}
}

func TestMeasureQoSIgnoresCrashedMonitor(t *testing.T) {
	l := &trace.Log{}
	l.Trace(rec(50, 0, trace.KindCrash, "", "", -1))
	l.Trace(rec(30, 0, trace.KindSuspect, "o", "", 1))
	q := MeasureQoS(l, "o", [][2]sim.ProcID{{0, 1}}, false, 1000)
	if q.MistakeCount != 0 {
		t.Fatalf("crashed monitor's output counted: %+v", q)
	}
}

func TestFailureLocality(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	l := &trace.Log{}
	l.Trace(rec(100, 0, trace.KindCrash, "", "", -1))
	// 1 (distance 1) and 3 (distance 3) starve.
	l.Trace(rec(200, 1, trace.KindState, "t", "hungry", -1))
	l.Trace(rec(200, 3, trace.KindState, "t", "hungry", -1))
	rep := FailureLocality(l, g, "t", 900, 1000)
	if rep.Starved[1] != 1 || rep.Starved[3] != 3 {
		t.Fatalf("distances: %v", rep.Starved)
	}
	if rep.Locality != 3 {
		t.Fatalf("locality=%d want 3", rep.Locality)
	}
	// No starvation at all: locality -1 (wait-free).
	l2 := &trace.Log{}
	l2.Trace(rec(100, 0, trace.KindCrash, "", "", -1))
	rep2 := FailureLocality(l2, g, "t", 900, 1000)
	if rep2.Locality != -1 || len(rep2.Starved) != 0 {
		t.Fatalf("expected wait-free verdict, got %+v", rep2)
	}
}
