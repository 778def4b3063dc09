package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The traced run (-trace 1) takes everything from outside the program:
// client-side spans, deltas of the public registry over the window, and
// probes. Spans inside the program are a later change.

// perLayer is every per-layer metric a traced run prints, with its unit. A
// metric that does not apply to a workload (wal.* without a data
// directory, chaos.* on a served table) reads 0 there. BENCHMARK.json's
// per_layer list is this table; the smoke test keeps the two in step.
var perLayer = map[string]string{
	"span.client_grant_us_p50":   "us",
	"span.client_release_us_p50": "us",

	"dinesvc.grant_us_p50":    "us",
	"dinesvc.grant_us_p99":    "us",
	"dinesvc.grant_us_mean":   "us",
	"dinesvc.wire_gap_us_p50": "us",
	"dinesvc.drain_ms":        "ms",
	"dinesvc.verdict_ms":      "ms",

	"lockproto.wire.decode_request_ns":    "ns",
	"lockproto.wire.encode_event_ns":      "ns",
	"lockproto.wire.decode_event_ns":      "ns",
	"lockproto.wire.allocs_per_op":        "count",
	"lockproto.sessions.cycle_ns":         "ns",
	"lockproto.flush.events_per_write":    "count",
	"lockproto.flush.bytes_per_op":        "B",
	"lockproto.flush.send_to_wire_us_p50": "us",

	"live.steps_per_op":             "count",
	"live.msgs_per_op":              "count",
	"live.invoke_to_run_us_p50":     "us",
	"live.step_wait_idle_us_p50":    "us",
	"live.step_wait_busy_us_p50":    "us",
	"live.timer_lateness_us_p50":    "us",
	"forks.hungry_to_eating_us_p50": "us",
	"forks.msgs_per_meal":           "count",

	"detector.idle_msgs_per_s":  "1/s",
	"detector.idle_cpu_pct":     "%",
	"detector.crash_unblock_ms": "ms",
	"core.idle_steps_per_s":     "1/s",
	"core.suspect_transitions":  "count",
	"core.trust_transitions":    "count",

	"wal.records_per_op":     "count",
	"wal.fsyncs_per_op":      "count",
	"wal.barriers_per_sync":  "count",
	"wal.batch_records_p50":  "count",
	"wal.fsync_us_p50":       "us",
	"wal.fsync_us_p99":       "us",
	"wal.fsync_us_mean":      "us",
	"wal.bytes_per_op":       "B",
	"wal.append_sync_us_p50": "us",
	"wal.recover_ms":         "ms",
	"wal.dir_is_tmpfs":       "count",

	"metrics.snapshot_us": "us",

	"sim.kernel.ns_per_event":          "ns",
	"sim.kernel.ns_per_step":           "ns",
	"chaos.forks_run_ms":               "ms",
	"chaos.token_run_ms":               "ms",
	"chaos.perfect_run_ms":             "ms",
	"chaos.trap_run_ms":                "ms",
	"chaos.us_per_krecord":             "us",
	"trace.records_per_run":            "count",
	"trace.hash_ns_per_record":         "ns",
	"checker.exclusion_us_per_krecord": "us",
	"sim.trace_hash_xor":               "count",

	"window.ops_per_s_first5": "1/s",
	"window.ops_per_s_last5":  "1/s",

	"proc.cpu_ms_per_op":           "ms",
	"proc.allocs_per_op":           "count",
	"proc.heap_retained_kb_per_op": "KiB",
	"proc.gc_pause_ms":             "ms",
	"proc.rss_peak_mb":             "MiB",
	"host.steal_pct":               "%",
	"host.nproc":                   "count",
	"host.slowdown":                "ratio",
	"trace.overhead_pct":           "%",
}

// fillPerLayer gives every per-layer metric the run did not produce the
// value 0, so a traced run always prints the whole table.
func fillPerLayer(m metricSet) {
	for name, unit := range perLayer {
		if _, ok := m[name]; !ok {
			m.set(name, 0, unit)
		}
	}
}

// span is one timed interval: its name, the span that caused it, and the
// request (session id, spec id) it belongs to. Times are µs since the run
// began.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Trace   string  `json:"trace,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// spanBook keeps spans in memory until the run ends. A nil book (untraced
// run) records nothing.
type spanBook struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanBook(traced bool) *spanBook {
	if !traced {
		return nil
	}
	return &spanBook{base: time.Now()}
}

// add records one span under parent (0: a root) and returns its id.
func (b *spanBook) add(parent int, name, trace string, start, end time.Time) int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	id := len(b.spans) + 1
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Name: name, Trace: trace,
		StartUs: float64(start.Sub(b.base)) / 1e3, EndUs: float64(end.Sub(b.base)) / 1e3,
	})
	return id
}

// timed runs fn inside a root span.
func (b *spanBook) timed(name string, fn func()) {
	t0 := time.Now()
	fn()
	b.add(0, name, "", t0, time.Now())
}

// write dumps the spans to <dir>/spans-<workload>.json.
func (b *spanBook) write(dir, workload string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, err := json.Marshal(b.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), data, 0o644)
}

// probeEdge is what the traced run reads at each edge of the window.
type probeEdge struct {
	snap                metrics.Snapshot
	grant, fsync, batch histCum
	proc                procSample
}

func readEdge(reg *metrics.Registry) probeEdge {
	expo := exposition(reg)
	return probeEdge{
		proc:  sampleProc(),
		snap:  reg.Snapshot(),
		grant: parseHist(expo, "dineserve_grant_latency_seconds", 1e-6),
		fsync: parseHist(expo, "dineserve_wal_fsync_seconds", 1e-6),
		batch: parseHist(expo, "dineserve_wal_batch_records", 1),
	}
}

// serveTrace turns one traced served run into its per-layer metrics.
type serveTrace struct {
	sp            serveSpec
	opts          serveOpts
	l             *load
	sb            *spanBook
	window        int // the window's span id
	before, after probeEdge
	t0, t1        int64
	done          []float64 // completed sessions per frameLen block
	completed     float64
	clientMeanUs  float64          // mean acquire→granted over the window's grants
	snap          metrics.Snapshot // after the drain: whole-run totals
	cpuMsPerOp    float64          // process CPU over the whole window per completed session
	drain         time.Duration
	verdict       time.Duration
}

// tracedBlock reports whether sessions starting in the i-th frameLen block
// of the window record spans: the pattern is off-on-on-off, so that a steady
// drift of throughput across the window cancels between the two halves of
// the comparison behind trace.overhead_pct.
func tracedBlock(i int) bool { return i%4 == 1 || i%4 == 2 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (tr *serveTrace) report(res *result) error {
	res.layers = metricSet{}
	m, sb, l := res.layers, tr.sb, tr.l
	counter := func(name string) int64 { return tr.after.snap.Counters[name] - tr.before.snap.Counters[name] }
	gauge := func(name string) int64 { return tr.after.snap.Gauges[name] - tr.before.snap.Gauges[name] }
	ops := tr.completed
	released := tr.snap.Counters["dineserve_sessions_released_total"] // whole run, warm-up included

	// Client spans: the session and its two waits.
	var grantWait, relWait []float64
	for _, c := range l.clients {
		for _, s := range c.spans {
			at := func(ns int64) time.Time { return l.base.Add(time.Duration(ns)) }
			id := sb.add(tr.window, "session", s.id, at(s.acquire), at(s.relOK))
			sb.add(id, "grant_wait", s.id, at(s.acquire), at(s.granted))
			sb.add(id, "release_wait", s.id, at(s.relSent), at(s.relOK))
			grantWait = append(grantWait, float64(s.granted-s.acquire)/1e3)
			relWait = append(relWait, float64(s.relOK-s.relSent)/1e3)
		}
	}
	clientGrant := median(grantWait)
	m.set("span.client_grant_us_p50", clientGrant, "us")
	m.set("span.client_release_us_p50", median(relWait), "us")

	grant := histBetween(tr.before.grant, tr.after.grant)
	m.set("dinesvc.grant_us_p50", grant.pct(50), "us")
	m.set("dinesvc.grant_us_p99", grant.pct(99), "us")
	m.set("dinesvc.grant_us_mean", grant.mean(), "us")
	m.set("dinesvc.wire_gap_us_p50", clientGrant-grant.pct(50), "us")
	m.set("dinesvc.drain_ms", float64(tr.drain)/1e6, "ms")
	m.set("dinesvc.verdict_ms", float64(tr.verdict)/1e6, "ms")

	m.set("lockproto.flush.events_per_write", ratio(counter("dineserve_wire_events_total"), counter("dineserve_wire_writes_total")), "count")
	m.set("lockproto.flush.bytes_per_op", float64(counter("dineserve_wire_bytes_total"))/ops, "B")
	m.set("live.steps_per_op", float64(gauge("dineserve_rt_steps"))/ops, "count")
	m.set("live.msgs_per_op", float64(gauge("dineserve_rt_msgs_delivered"))/ops, "count")
	m.set("core.suspect_transitions", float64(counter("dineserve_suspect_transitions_total")), "count")
	m.set("core.trust_transitions", float64(counter("dineserve_trust_transitions_total")), "count")

	fsync := histBetween(tr.before.fsync, tr.after.fsync)
	if tr.sp.durable {
		m.set("wal.records_per_op", float64(counter("dineserve_wal_records_total"))/ops, "count")
		m.set("wal.fsyncs_per_op", float64(counter("dineserve_wal_fsyncs_total"))/ops, "count")
		m.set("wal.barriers_per_sync", ratio(counter("dineserve_wal_barriers_total"), counter("dineserve_wal_sync_rounds_total")), "count")
		m.set("wal.batch_records_p50", histBetween(tr.before.batch, tr.after.batch).pct(50), "count")
		m.set("wal.fsync_us_p50", fsync.pct(50), "us")
		m.set("wal.fsync_us_p99", fsync.pct(99), "us")
		m.set("wal.fsync_us_mean", fsync.mean(), "us")
		m.set("wal.bytes_per_op", dirBytes(l.dir)/float64(max(released, 1)), "B")
		m.set("wal.dir_is_tmpfs", isTmpfs(l.dir), "count")
	}

	// Throughput by block: traced against untraced blocks is the tracing
	// overhead. By second: first against last five is the slow-down.
	var on, off, nOn, nOff float64
	for i, d := range tr.done {
		if tracedBlock(i) {
			on, nOn = on+d, nOn+1
		} else {
			off, nOff = off+d, nOff+1
		}
	}
	if on > 0 && off > 0 {
		m.set("trace.overhead_pct", 100*(1-(on/nOn)/(off/nOff)), "%")
	}
	secs := int((tr.t1 - tr.t0) / 1e9)
	perSec := make([]float64, secs)
	for _, c := range l.clients {
		for _, o := range c.ops {
			if s := int((o.released - tr.t0) / 1e9); o.released >= tr.t0 && s < secs {
				perSec[s]++
			}
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("%s completed sessions per second of the window: %v", tr.sp.name, perSec))
	edge := min(5, secs/4)
	if edge > 0 {
		var first, last float64
		for s := 0; s < edge; s++ {
			first += perSec[s]
			last += perSec[secs-1-s]
		}
		m.set("window.ops_per_s_first5", first/float64(edge), "1/s")
		m.set("window.ops_per_s_last5", last/float64(edge), "1/s")
	}
	procMetrics(m, tr.before.proc, tr.after.proc, ops)
	m.set("proc.cpu_ms_per_op", tr.cpuMsPerOp, "ms")

	// Probes, each inside its own span.
	var err error
	try := func(name string, fn func() error) {
		sb.timed("probe."+name, func() {
			if e := fn(); e != nil && err == nil {
				err = fmt.Errorf("probe %s: %w", name, e)
			}
		})
	}
	try("wire", func() error { probeWire(m, tr.sp); return nil })
	try("sessions", func() error { probeSessions(m, int(released)); return nil })
	try("flush", func() error { return probeFlush(m) })
	try("live", func() error { probeLive(m); return nil })
	try("forks", func() error { probeForks(m, tr.sp); return nil })
	try("snapshot", func() error { probeSnapshot(m, l.svc.Registry()); return nil })
	if tr.sp.durable {
		try("wal", func() error { return probeWAL(m, l.dir) })
	}
	idle := time.Second
	if tr.opts.quick {
		idle = 200 * time.Millisecond
	}
	try("idle", func() error { return probeIdle(m, tr.sp, tr.siblingDir("idle"), idle) })
	if tr.sp.durable && !tr.opts.quick {
		// Extraction has no restart story (dineserve itself refuses the
		// combination), so only the extraction-free ring takes the crash.
		try("crash", func() error { return probeCrashUnblock(m, tr.sp, tr.opts.seed, tr.siblingDir("crash")) })
	}
	if err != nil {
		return err
	}

	// Reconciliation: a grant as the client sees it contains the grant as
	// the server sees it. Means over the same window, because the
	// histogram's sum is exact where its percentiles are bucketed; 1 % of
	// slack for the sessions in flight at the window's two edges. The WAL
	// fsync is printed beside them but not nested: under Fsync "interval"
	// it runs behind the grant path, not inside it.
	client, server := tr.clientMeanUs, grant.mean()
	if client < 0.99*server {
		l.fail("reconciliation: client grant %.0f us < dinesvc grant %.0f us", client, server)
	}
	res.notes = append(res.notes, fmt.Sprintf(
		"%s reconciliation (means over the window): client grant %.0f us = dinesvc grant %.0f us (%.0f %%) + wire gap %.0f us (%.0f %%); background wal fsync %.0f us; %d session spans",
		tr.sp.name, client, server, 100*server/client, client-server, 100*(client-server)/client, fsync.mean(), len(grantWait)))

	fillPerLayer(m)
	return sb.write(tr.opts.outDir, tr.sp.name)
}

// siblingDir names a data directory for a probe's own service boot, next
// to the run's (so runServe's clean-up covers it); empty, i.e. no
// persistence, unless the workload is durable.
func (tr *serveTrace) siblingDir(tag string) string {
	if !tr.sp.durable {
		return ""
	}
	return filepath.Join(filepath.Dir(tr.l.dir), tag)
}

// simTrace collects what the traced sim run needs beyond the times: the
// span of every execution in odd passes (odd, traced passes are compared
// against even, untraced ones) and one ring log per box for the trace and
// checker probes.
type simTrace struct {
	sb     *spanBook
	before procSample
	kept   map[string]keptLog
}

type keptLog struct {
	n   int
	log *trace.Log
	end sim.Time
}

func newSimTrace(sb *spanBook) *simTrace {
	return &simTrace{sb: sb, before: sampleProc(), kept: map[string]keptLog{}}
}

// observe is called once per execution.
func (tr *simTrace) observe(pass int, spec chaos.Spec, r *chaos.Result, t0 time.Time, d time.Duration) {
	if pass%2 == 1 {
		tr.sb.add(0, "chaos.execute", spec.ID(), t0, t0.Add(d))
	}
	if _, ok := tr.kept[spec.Box]; pass == 0 && !ok && spec.Topology == "ring" {
		tr.kept[spec.Box] = keptLog{n: spec.N, log: r.Log, end: r.End}
	}
}

func (tr *simTrace) report(res *result, opts simOpts, specs []chaos.Spec, runs []specRun, slow []float64, sumMs, cpuMsPerOp float64) error {
	res.layers = metricSet{}
	m := res.layers
	after := sampleProc()
	procMetrics(m, tr.before, after, float64(res.attempted))
	m.set("proc.cpu_ms_per_op", cpuMsPerOp, "ms")

	byBox := map[string][]float64{}
	var records float64
	var xor uint64
	for i, r := range runs {
		byBox[specs[i].Box] = append(byBox[specs[i].Box], at(r.wall, slow, everyPass))
		records += float64(r.records)
		xor ^= r.hash
	}
	for box, v := range byBox {
		m.set("chaos."+box+"_run_ms", median(v), "ms")
	}
	m.set("chaos.us_per_krecord", sumMs*1e3/(records/1e3), "us")
	m.set("trace.records_per_run", records/float64(len(runs)), "count")
	// Folded to 32 bits so the JSON number is exact.
	m.set("sim.trace_hash_xor", float64(uint32(xor)^uint32(xor>>32)), "count")

	var slowSum float64
	for _, f := range slow {
		slowSum += f
	}
	m.set("host.slowdown", slowSum/float64(len(slow)), "ratio")

	// Equally many traced and untraced passes.
	even := len(slow) / 2 * 2
	var odd, evn float64
	for _, r := range runs {
		odd += at(r.wall, slow, func(p int) bool { return p < even && p%2 == 1 })
		evn += at(r.wall, slow, func(p int) bool { return p < even && p%2 == 0 })
	}
	if evn > 0 {
		m.set("trace.overhead_pct", 100*(odd/evn-1), "%")
	}

	// Re-run the trace digest and the ◇WX checker on the kept logs.
	var hashNs, checkNs, keptRecords float64
	tr.sb.timed("probe.trace_checker", func() {
		boxes := make([]string, 0, len(tr.kept))
		for box := range tr.kept {
			boxes = append(boxes, box)
		}
		sort.Strings(boxes)
		for _, box := range boxes {
			k := tr.kept[box]
			g := graph.Ring(k.n)
			keptRecords += float64(k.log.Len())
			hashNs += float64(minOf(3, func() { k.log.Hash() }))
			checkNs += float64(minOf(3, func() { checker.Exclusion(k.log, g, "dine", k.end) }))
		}
	})
	if keptRecords > 0 {
		m.set("trace.hash_ns_per_record", hashNs/keptRecords, "ns")
		m.set("checker.exclusion_us_per_krecord", checkNs/1e3/(keptRecords/1e3), "us")
	}
	tr.sb.timed("probe.kernel", func() { probeKernel(m) })

	fillPerLayer(m)
	return tr.sb.write(opts.outDir, "sim_campaign")
}
