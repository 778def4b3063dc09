package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// pct returns the p-th percentile (0–100) of an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice.
func pct(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return pct(s, 50)
}

// tailPct is the highest of p95/p90/p75 that still has at least ten samples
// beyond it — a percentile with fewer is one outlier's position, not a
// property of the run. It stops at p95: on the shared two-core host p99 is
// the host's scheduling stalls, and its quartile spread over identical runs
// (25–34 %) was wider than any bound the benchmark may set.
func tailPct(n int) float64 {
	for _, p := range []float64{95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the aggregate cpu line of /proc/stat: total and stolen
// jiffies. Zeros when procfs is unavailable.
func hostCPU() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealPct is the share of host CPU time stolen between two hostCPU readings.
func stealPct(total0, steal0, total1, steal1 float64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * (steal1 - steal0) / (total1 - total0)
}

// rssPeakMB is the process's high-water resident set (VmHWM), in MiB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// procSample is a point-in-time reading of the process and host counters
// the traced run reports as deltas over the window.
type procSample struct {
	mallocs      uint64
	heap         uint64
	gcPause      uint64
	total, steal float64
}

// sampleProc forces a collection first so heap is what the program retains,
// not what the collector has yet to find.
func sampleProc() procSample {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{mallocs: ms.Mallocs, heap: ms.HeapAlloc, gcPause: ms.PauseTotalNs}
	s.total, s.steal = hostCPU()
	return s
}

// procMetrics reports the window's allocation, retention, GC and steal
// figures per completed op.
func procMetrics(m metricSet, a, b procSample, ops float64) {
	m.set("proc.allocs_per_op", float64(b.mallocs-a.mallocs)/ops, "count")
	m.set("proc.heap_retained_kb_per_op", (float64(b.heap)-float64(a.heap))/1024/ops, "KiB")
	m.set("proc.gc_pause_ms", float64(b.gcPause-a.gcPause)/1e6, "ms")
	m.set("proc.rss_peak_mb", rssPeakMB(), "MiB")
	m.set("host.steal_pct", stealPct(a.total, a.steal, b.total, b.steal), "%")
	m.set("host.nproc", float64(runtime.NumCPU()), "count")
}

// histCum is one histogram's cumulative bucket counts by upper bound, as
// the Prometheus exposition prints them, plus its sum and count — all in
// the histogram's raw observation unit (µs, records).
type histCum struct {
	le    []float64 // ascending, +Inf excluded
	cum   []float64
	sum   float64
	count float64
}

// exposition renders the registry's text exposition once, for parseHist.
func exposition(reg *metrics.Registry) []byte {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	return buf.Bytes()
}

// parseHist reads one histogram out of the text exposition and undoes its
// exposition scale. Registry.Snapshot only carries whole-life percentiles,
// and a window's distribution needs the bucket counts at both edges.
func parseHist(expo []byte, name string, scale float64) histCum {
	var h histCum
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok {
			continue
		}
		key, val, ok := strings.Cut(rest, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case key == "_sum":
			h.sum = v / scale
		case key == "_count":
			h.count = v
		case strings.HasPrefix(key, `_bucket{le="`):
			bound := strings.TrimSuffix(strings.TrimPrefix(key, `_bucket{le="`), `"}`)
			if bound == "+Inf" {
				continue
			}
			le, err := strconv.ParseFloat(bound, 64)
			if err != nil {
				continue
			}
			h.le = append(h.le, math.Round(le/scale))
			h.cum = append(h.cum, v)
		}
	}
	return h
}

// cumAt is the cumulative count at bound le (buckets only appear in the
// exposition once non-empty, so a missing bound inherits its predecessor).
func (h histCum) cumAt(le float64) float64 {
	c := 0.0
	for i, b := range h.le {
		if b > le {
			break
		}
		c = h.cum[i]
	}
	return c
}

// histWindow is the distribution a histogram gained between two scrapes.
type histWindow struct {
	le    []float64
	n     []float64 // per-bucket (not cumulative) counts
	count float64
	sum   float64
}

func histBetween(a, b histCum) histWindow {
	w := histWindow{count: b.count - a.count, sum: b.sum - a.sum}
	prev := 0.0
	for i, le := range b.le {
		c := b.cum[i] - a.cumAt(le)
		w.le = append(w.le, le)
		w.n = append(w.n, c-prev)
		prev = c
	}
	return w
}

func (w histWindow) mean() float64 {
	if w.count <= 0 {
		return 0
	}
	return w.sum / w.count
}

// pct interpolates linearly inside the owning bucket. The registry's own
// Pct reports the bucket's upper bound (up to 19 % high); interpolation is
// what lets a server-side percentile sit below the client-side one it is a
// part of.
func (w histWindow) pct(p float64) float64 {
	total := 0.0
	for _, c := range w.n {
		total += c
	}
	if total <= 0 {
		return 0
	}
	rank := p / 100 * total
	cum := 0.0
	for i, c := range w.n {
		if c > 0 && cum+c >= rank {
			lower := bucketLower(w.le[i])
			return lower + (w.le[i]-lower)*(rank-cum)/c
		}
		cum += c
	}
	return w.le[len(w.le)-1]
}

// bucketLower is the lower edge of the registry bucket whose upper bound is
// le (the exposition omits empty buckets, so the previous printed bound is
// not it).
func bucketLower(le float64) float64 {
	for i := 1; i < metrics.NumBuckets; i++ {
		if float64(metrics.BucketUpper(i)) == le {
			return float64(metrics.BucketUpper(i - 1))
		}
	}
	return 0
}
