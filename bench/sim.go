package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
)

// The sim campaign is chaos.DefaultCampaign over the two kernel seeds
// {seed, seed+1}: 4 boxes × 3 topologies × 2 sizes × 5 fault plans × 2
// seeds = 240 specs. The horizon is half the campaign's default 30000
// ticks, so that a pass takes about two seconds and a 20 s window holds
// seven or more of them: a time is a median over the passes.
//
// One op is one fault scenario (topology, size, seed, plan) run against all
// four boxes: 60 per pass. Single executions make a two-humped population
// (perfect and trap ≈ 2 ms, forks and token ≈ 10 ms) whose median sits in
// the gap between the humps and jumps with every spec that crosses it;
// scenarios range evenly from 15 to 45 ms.
//
// simSetups timed set-ups precede the measured passes; each expands the
// campaign and executes every simSetupStride-th spec.
const (
	simHorizon     = 15000
	simSetups      = 5
	simSetupStride = 8
)

type simOpts struct {
	seed   int64
	window time.Duration
	traced bool
	outDir string
	setups int
	limit  int // keep only the first limit specs of each box (0: all); the smoke test's knob
}

func simSpecs(seed int64, limit int) []chaos.Spec {
	c := chaos.DefaultCampaign(simHorizon)
	c.Seeds = []int64{seed, seed + 1}
	specs := c.Specs()
	if limit <= 0 {
		return specs
	}
	var out []chaos.Spec
	perBox := map[string]int{}
	for _, s := range specs {
		if perBox[s.Box] < limit {
			perBox[s.Box]++
			out = append(out, s)
		}
	}
	return out
}

// scenarios groups the specs that differ only in the box: Specs() enumerates
// the scenarios in the same order under every box.
func scenarios(specs []chaos.Spec) [][]int {
	seen := map[string]int{} // box → specs of it so far
	var out [][]int
	for i, s := range specs {
		g := seen[s.Box]
		seen[s.Box]++
		if g == len(out) {
			out = append(out, nil)
		}
		out[g] = append(out[g], i)
	}
	return out
}

// specRun is what the harness keeps of one spec across passes.
type specRun struct {
	wall, cpu []time.Duration // as measured, one per pass
	hash      uint64
	records   int
}

// at is the median over the passes keep admits of the spec's times, each
// divided by its pass's slow-down, in ms.
func at(times []time.Duration, slow []float64, keep func(pass int) bool) float64 {
	var v []float64
	for p, d := range times {
		if keep(p) {
			v = append(v, float64(d)/1e6/slow[p])
		}
	}
	return median(v)
}

func everyPass(int) bool { return true }

// runSim executes the campaign sequentially on this goroutine (internal/par
// is bypassed on purpose: on two cores it could at best halve the time
// while doubling its run-to-run spread) for as many whole passes as fit in
// the window, at least two. The work is deterministic, so every pass must
// reproduce pass 0's trace hashes, and a spec's time (and CPU time) is the
// median over the passes of its host-normalised times (see hostRef).
func runSim(opts simOpts) (*result, error) {
	res := &result{endToEnd: metricSet{}}
	sb := newSpanBook(opts.traced)
	ref := newHostRef()

	var specs []chaos.Spec
	var setupWall []time.Duration
	var setupRef []stretch
	for i := 0; i < opts.setups; i++ {
		t0 := time.Now()
		var st stretch
		specs = simSpecs(opts.seed, opts.limit)
		for j := 0; j < len(specs); j += simSetupStride {
			res.attempted++
			if r := chaos.Execute(specs[j]); r.Failed() {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("%s: %s", specs[j].ID(), r.First()))
			}
			st.add(ref.sample())
		}
		setupWall = append(setupWall, time.Since(t0)-st.ref)
		setupRef = append(setupRef, st)
		sb.add(0, "setup", "", t0, time.Now())
	}

	runs := make([]specRun, len(specs))
	var passRef []stretch
	var tr *simTrace
	if opts.traced {
		tr = newSimTrace(sb)
	}
	start := time.Now()
	passes := 0
	var lastPass time.Duration
	for passes < 2 || time.Since(start)+lastPass <= opts.window {
		passStart := time.Now()
		var st stretch
		for i, spec := range specs {
			cpu0 := cpuTime()
			t0 := time.Now()
			r := chaos.Execute(spec)
			d := time.Since(t0)
			cpu := cpuTime() - cpu0
			st.add(ref.sample())
			res.attempted++
			switch {
			case r.Failed():
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("%s: [%s] %s", spec.ID(), r.Category, r.First()))
			case passes > 0 && r.TraceHash != runs[i].hash:
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("%s: trace hash %x in pass %d, %x in pass 0", spec.ID(), r.TraceHash, passes, runs[i].hash))
			}
			if passes == 0 {
				runs[i].hash, runs[i].records = r.TraceHash, r.Log.Len()
			}
			runs[i].wall = append(runs[i].wall, d)
			runs[i].cpu = append(runs[i].cpu, cpu)
			if tr != nil {
				tr.observe(passes, spec, r, t0, d)
			}
		}
		passRef = append(passRef, st)
		lastPass = time.Since(passStart)
		passes++
	}

	slow := make([]float64, passes)
	for p, st := range passRef {
		slow[p] = st.slow()
	}
	setups := make([]float64, len(setupWall))
	for i, d := range setupWall {
		setups[i] = d.Seconds() / setupRef[i].slow()
	}

	// Per scenario and pass: the sum over its specs.
	groups := scenarios(specs)
	ms := make([]float64, len(groups))
	var sumMs, cpuMs float64
	for g, members := range groups {
		wall := make([]time.Duration, passes)
		cpu := make([]time.Duration, passes)
		for _, i := range members {
			for p := 0; p < passes; p++ {
				wall[p] += runs[i].wall[p]
				cpu[p] += runs[i].cpu[p]
			}
		}
		ms[g] = at(wall, slow, everyPass)
		sumMs += ms[g]
		cpuMs += at(cpu, slow, everyPass)
	}
	var rawMs float64
	for _, r := range runs {
		for _, d := range r.wall {
			rawMs += float64(d) / 1e6
		}
	}
	n := float64(len(groups))
	sort.Float64s(ms)
	tail := tailPct(len(ms))
	m := res.endToEnd
	m.set("setup_s", median(setups), "s")
	m.set("op_p50_ms", pct(ms, 50), "ms")
	m.set("op_p95_ms", pct(ms, tail), "ms")
	m.set("ops_per_s", n/(sumMs/1e3), "1/s")
	res.notes = append(res.notes,
		fmt.Sprintf("sim_campaign: %d scenarios × %d boxes × %d passes in %.1f s; host-normalised scenario medians sum to %.0f ms (as measured, mean pass: %.0f ms); op_p95_ms is p%.0f; setups %.3f s",
			len(groups), len(specs)/len(groups), passes, time.Since(start).Seconds(), sumMs, rawMs/float64(passes), tail, setups),
		fmt.Sprintf("sim_campaign host slow-down per pass %.2f", slow))
	if tr != nil {
		if err := tr.report(res, opts, specs, runs, slow, sumMs, cpuMs/n); err != nil {
			return nil, err
		}
	}
	return res, nil
}
