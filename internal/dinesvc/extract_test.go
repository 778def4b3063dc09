package dinesvc

import (
	"fmt"
	"testing"
	"time"
)

// TestExtractionDoesNotTaxGrants pins the scheduling contract between the
// served table and the paper's extraction running beside it. The extraction
// keeps ~126 guarded actions per process permanently in play and is paced to
// one step per Tick; the served table's own steps are prompt. With a 20 ms
// Tick a grant that queued behind even one paced slot would show — under the
// old single rotation every grant waited out dozens — so every server-side
// grant latency must stay under one Tick. And the extraction must really be
// running, at its own tempo: the suspect feed starts with every ordered pair
// suspected and has to converge to all-trusted.
func TestExtractionDoesNotTaxGrants(t *testing.T) {
	if testing.Short() {
		t.Skip("waits for the extraction to converge; skipped in -short")
	}
	const (
		n    = 8
		tick = 20 * time.Millisecond
	)
	svc, err := New(Config{N: n, Topology: "ring", Tick: tick, HBTimeout: 3000, Extract: true})
	if err != nil {
		t.Fatal(err)
	}
	booted := time.Now()
	ln, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(5 * time.Second)
	cl := dialBench(t, ln.Addr().String())
	defer cl.c.Close()

	tbl := svc.tableFor(0)
	for i := 0; i < 20; i++ {
		cl.session(t, 0, fmt.Sprintf("x-%d", i))
	}
	if got := tbl.m.grantLat.Count(); got != 20 {
		t.Fatalf("grant latency histogram holds %d observations, want 20", got)
	}
	if worst := tbl.m.grantLat.MaxDuration(); worst >= tick {
		t.Errorf("slowest server-side grant took %v beside the extraction, want under one Tick = %v", worst, tick)
	}

	suspected := func() int {
		tbl.feed.mu.Lock()
		defer tbl.feed.mu.Unlock()
		return len(tbl.feed.cur)
	}
	pairs := int64(n * (n - 1))
	deadline := time.Now().Add(60 * time.Second)
	for tbl.m.trusts.Value() < pairs || suspected() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("extraction did not converge: %d of %d pairs ever trusted, %d still suspected",
				tbl.m.trusts.Value(), pairs, suspected())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Paced, on any host: each process's extraction takes at most one step
	// per Tick; the served table adds its two prompt steps per session.
	steps := tbl.r.Counter("steps")
	if bound := int64(n)*int64(time.Since(booted)/tick+1) + 2*20; steps > bound {
		t.Errorf("%d action steps where pacing allows at most %d: the extraction is running unpaced", steps, bound)
	}
}
