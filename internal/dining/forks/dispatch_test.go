package forks

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/graph"
	"repro/internal/rt"
	"repro/internal/sim"
)

// TestDispatchAllocs: routing a message on the module's one port by its
// payload type allocates nothing. Each message takes a path that sends
// nothing, so the count is the dispatch's alone.
func TestDispatchAllocs(t *testing.T) {
	k := sim.NewKernel(3)
	var mute detector.Scripted
	tbl := New(k, graph.Pair(0, 1), "fk", &mute, Config{})
	holder, other := tbl.diner(0), tbl.diner(1) // the lower id holds the fork
	msgs := []struct {
		at  *module
		msg rt.Message
	}{
		{other, rt.Message{From: 0, Payload: reqMsg{TS: 7}}},           // not held: remembered
		{holder, rt.Message{From: 1, Payload: forkMsg{}}},              // already held
		{holder, rt.Message{From: 2, Payload: syncMsg{}}},              // not a neighbor
		{holder, rt.Message{From: 1, Payload: syncAckMsg{Hold: true}}}, // no resync pending
	}
	for _, c := range msgs {
		if n := testing.AllocsPerRun(100, func() { c.at.onMsg(c.msg) }); n != 0 {
			t.Errorf("dispatching %T: %.0f allocations, want 0", c.msg.Payload, n)
		}
	}
}
