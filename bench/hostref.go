package main

import (
	"sort"
	"time"
)

// hostRef measures how fast the host is running right now. The sim campaign
// is CPU- and memory-bound, and on a shared host its speed follows the
// neighbours' load on caches and memory: identical campaigns minutes apart
// read a per-spec-minimum total of 1400 to 1850 ms, slow for whole runs at a
// time, so no statistic inside one run removes it. hostRef therefore runs a
// fixed piece of work of the campaign's own kind (small allocations, a map,
// a sort, a pointer walk; no code of this repository) after every
// execution. (The served workloads wait on timers, not on the CPU; there
// the reference tracked nothing and its allocations doubled the collector's
// work, so they do without.) A stretch's slow-down
// is its mean sample over refNominal, and a CPU-bound time is divided by the
// slow-down of the stretch it was taken in: the time as it would read on a
// host that runs the reference work in refNominal. The ten campaigns above
// read 1180 to 1300 ms that way, with a quartile spread of 3 %.
type hostRef struct {
	scratch []uint64
}

// refNominal is what one sample takes on this class of host (Xeon, 2.1 GHz)
// when nothing disturbs it. It only fixes the scale of the normalised
// times; comparisons between runs do not depend on it.
const refNominal = 150 * time.Microsecond

type refNode struct {
	k, v uint64
	next *refNode
}

var refSink uint64 // keeps the reference work's result live

func newHostRef() *hostRef { return &hostRef{scratch: make([]uint64, 1024)} }

// sample runs the reference work once and returns how long it took.
func (h *hostRef) sample() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	m := make(map[uint64]*refNode, 64)
	var head *refNode
	for i := range h.scratch {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &refNode{k: x, v: uint64(i), next: head}
		head = n
		m[x%2048] = n
		h.scratch[i] = x
	}
	sort.Slice(h.scratch, func(i, j int) bool { return h.scratch[i] < h.scratch[j] })
	for n := head; n != nil; n = n.next {
		refSink += n.v + m[n.k%2048].v
	}
	refSink += h.scratch[7]
	return time.Since(t0)
}

// stretch is the reference samples taken during one sim pass or set-up.
type stretch struct {
	ref time.Duration
	n   int
}

func (s *stretch) add(d time.Duration) { s.ref, s.n = s.ref+d, s.n+1 }

// slow is the stretch's slow-down: 1 on an undisturbed host.
func (s stretch) slow() float64 {
	return float64(s.ref) / float64(s.n) / float64(refNominal)
}
