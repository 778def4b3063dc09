package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/detector"
	"repro/internal/dinesvc"
	"repro/internal/dining"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/lockproto"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/wal"
)

// A probe is a timed call into one layer's public functions, on the
// message shapes the workload itself produces. Probes run after the
// service has drained, so nothing else competes for the two cores.

// p50us is the median of a duration sample, in µs.
func p50us(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / 1e3
	}
	return median(v)
}

// probeWire times the codec over n frames shaped like the workload's own:
// acquire/release requests and granted/released events for its diners.
func probeWire(m metricSet, sp serveSpec) {
	const n = 20000
	var diners []int
	for _, c := range sp.conns {
		diners = append(diners, c...)
	}
	var reqs, evs []byte
	events := make([]lockproto.Event, n)
	for i := 0; i < n; i++ {
		d := diners[i%len(diners)]
		id := "c" + strconv.Itoa(i%len(sp.conns)) + "-d" + strconv.Itoa(d) + "-" + strconv.Itoa(i)
		req := lockproto.Request{Op: lockproto.OpAcquire, Diner: d, ID: id}
		events[i] = lockproto.Event{Ev: lockproto.EvGranted, Diner: d, ID: id, T: int64(3000 + i)}
		if i%2 == 1 {
			req.Op, events[i].Ev = lockproto.OpRelease, lockproto.EvReleased
		}
		reqs = append(lockproto.AppendRequest(reqs, &req), '\n')
		evs = append(lockproto.AppendEvent(evs, &events[i]), '\n')
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	t0 := time.Now()
	rr := lockproto.NewRequestReader(bytes.NewReader(reqs))
	for i := 0; i < n; i++ {
		var r lockproto.Request
		if err := rr.Read(&r); err != nil {
			panic(err) // our own frames: a decode error is a codec bug
		}
	}
	decReq := time.Since(t0)

	t0 = time.Now()
	buf := make([]byte, 0, 256)
	for i := range events {
		buf = lockproto.AppendEvent(buf[:0], &events[i])
	}
	encEv := time.Since(t0)

	t0 = time.Now()
	er := lockproto.NewEventReader(bytes.NewReader(evs))
	for i := 0; i < n; i++ {
		var e lockproto.Event
		if err := er.Read(&e); err != nil {
			panic(err)
		}
	}
	decEv := time.Since(t0)

	runtime.ReadMemStats(&ms1)
	m.set("lockproto.wire.decode_request_ns", float64(decReq)/n, "ns")
	m.set("lockproto.wire.encode_event_ns", float64(encEv)/n, "ns")
	m.set("lockproto.wire.decode_event_ns", float64(decEv)/n, "ns")
	m.set("lockproto.wire.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
}

// probeSessions times one full registry cycle on a registry that already
// carries as many tombstones as the run left behind (capped: the fill
// itself costs a microsecond each).
func probeSessions(m metricSet, tombstones int) {
	const n = 20000
	if tombstones > 200000 {
		tombstones = 200000
	}
	s := lockproto.NewSessions(30000)
	for i := 0; i < tombstones; i++ {
		k := lockproto.Key{Diner: i % 8, ID: "t" + strconv.Itoa(i)}
		s.Acquire(k, 0)
		s.Grant(k, 0)
		s.Release(k, 0)
	}
	keys := make([]lockproto.Key, n)
	for i := range keys {
		keys[i] = lockproto.Key{Diner: i % 8, ID: "p" + strconv.Itoa(i)}
	}
	t0 := time.Now()
	for i, k := range keys {
		now := int64(i)
		s.Acquire(k, now)
		s.Attach(k, now)
		s.Grant(k, now)
		s.Release(k, now)
		s.Detach(k, now)
	}
	m.set("lockproto.sessions.cycle_ns", float64(time.Since(t0))/n, "ns")
}

// probeFlush times FlushWriter.Send → bytes readable at the peer of a
// loopback connection, one event at a time: the coalescing window a lone
// event always pays.
func probeFlush(m metricSet) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer cli.Close()
	srv, err := ln.Accept()
	if err != nil {
		return err
	}
	defer srv.Close()
	fw := lockproto.NewFlushWriter(srv, 0, 500*time.Microsecond)
	br := bufio.NewReader(cli)
	var d []time.Duration
	for i := 0; i < 200; i++ {
		ev := lockproto.Event{Ev: lockproto.EvGranted, Diner: 2, ID: "c0-d2-" + strconv.Itoa(i), T: int64(i)}
		t0 := time.Now()
		fw.Send(&ev)
		if _, err := br.ReadSlice('\n'); err != nil {
			return err
		}
		d = append(d, time.Since(t0))
	}
	m.set("lockproto.flush.send_to_wire_us_p50", p50us(d), "us")
	return fw.Close()
}

// probeLive times the runtime's three wake-up paths on a one-process
// runtime at the workload's tick: an injected call, a one-tick timer, and
// a guarded action becoming enabled with 0 or 4 permanently enabled
// actions competing for the step pacer (the extraction's shape).
func probeLive(m metricSet) {
	tick := time.Millisecond
	ran := make(chan time.Time, 1)
	stamp := func() { ran <- time.Now() }

	r := live.New(live.Config{N: 1, Tick: tick})
	r.Start()
	var invoke, late []time.Duration
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		r.Invoke(0, stamp)
		invoke = append(invoke, (<-ran).Sub(t0))
	}
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		r.After(0, 1, stamp)
		late = append(late, (<-ran).Sub(t0)-tick)
	}
	r.Stop()
	m.set("live.invoke_to_run_us_p50", p50us(invoke), "us")
	m.set("live.timer_lateness_us_p50", p50us(late), "us")

	stepWait := func(competing, iters int) float64 {
		r := live.New(live.Config{N: 1, Tick: tick})
		armed := false // touched only on process 0's goroutine
		r.AddAction(0, "probe", func() bool { return armed }, func() { armed = false; stamp() })
		for i := 0; i < competing; i++ {
			r.AddAction(0, "spin"+strconv.Itoa(i), func() bool { return true }, func() {})
		}
		r.Start()
		defer r.Stop()
		rng := rand.New(rand.NewSource(1))
		var d []time.Duration
		for i := 0; i < iters; i++ {
			// De-phase from the pacer, which the previous body just reset.
			time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			t0 := time.Now()
			r.Invoke(0, func() { armed = true })
			d = append(d, (<-ran).Sub(t0))
		}
		return p50us(d)
	}
	m.set("live.step_wait_idle_us_p50", stepWait(0, 100), "us")
	m.set("live.step_wait_busy_us_p50", stepWait(4, 40), "us")
}

// probeForks runs the dining layer alone — live runtime, heartbeat ◇P and
// forks table on the workload's ring, no service around it — with the
// workload's diners permanently hungry, and times hungry → eating.
func probeForks(m metricSet, sp serveSpec) {
	r := live.New(live.Config{N: sp.n, Tick: time.Millisecond})
	hb := detector.NewHeartbeat(r, "hb", detector.HeartbeatConfig{Interval: 20, Check: 10, Timeout: 3000, Bump: 1500})
	tbl := forks.New(r, graph.Ring(sp.n), "dine", hb, forks.Config{})
	var (
		mu       sync.Mutex
		waits    []time.Duration
		stopping atomic.Bool
	)
	hungryAt := make([]time.Time, sp.n) // each slot touched only on its own process
	var driven []rt.ProcID
	for _, c := range sp.conns {
		for _, d := range c {
			driven = append(driven, rt.ProcID(d))
		}
	}
	hungers := make(map[rt.ProcID]func())
	for _, p := range driven {
		p, d := p, tbl.Diner(p)
		hunger := func() {
			if d.State() == dining.Thinking && !stopping.Load() {
				hungryAt[p] = time.Now()
				d.Hungry()
			}
		}
		d.OnChange(func(st dining.State) {
			switch st {
			case dining.Eating:
				w := time.Since(hungryAt[p])
				mu.Lock()
				waits = append(waits, w)
				mu.Unlock()
				r.Invoke(p, func() {
					if d.State() == dining.Eating {
						d.Exit()
					}
				})
			case dining.Thinking:
				r.Invoke(p, hunger)
			}
		})
		hungers[p] = hunger
	}
	r.Start()
	for p, hunger := range hungers {
		r.Invoke(p, hunger)
	}
	time.Sleep(200 * time.Millisecond) // first meals fetch the forks
	mu.Lock()
	waits = waits[:0]
	mu.Unlock()
	msgs0 := r.Counter("msg.sent")
	time.Sleep(500 * time.Millisecond)
	msgs1 := r.Counter("msg.sent")
	mu.Lock()
	meals := len(waits)
	p50 := p50us(waits)
	mu.Unlock()
	stopping.Store(true)
	r.Stop()
	m.set("forks.hungry_to_eating_us_p50", p50, "us")
	if meals > 0 {
		m.set("forks.msgs_per_meal", float64(msgs1-msgs0)/float64(meals), "count")
	}
}

// probeIdle boots the workload's service with no clients and reads what it
// costs to stand still: heartbeat (and, with extraction, witness/subject)
// messages, protocol steps and CPU over dwell.
func probeIdle(m metricSet, sp serveSpec, dir string, dwell time.Duration) error {
	var fault atomic.Pointer[string] // a service fault before the drain
	var draining atomic.Bool
	svc, err := dinesvc.New(sp.config(dir, func(msg string) {
		if !draining.Load() {
			fault.Store(&msg)
		}
	}))
	if err != nil {
		return err
	}
	if _, err := svc.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() {
		draining.Store(true)
		svc.Drain(time.Second)
	}()
	time.Sleep(200 * time.Millisecond)
	s0, cpu0, t0 := svc.Registry().Snapshot(), cpuTime(), time.Now()
	time.Sleep(dwell)
	s1, cpu1, secs := svc.Registry().Snapshot(), cpuTime(), time.Since(t0).Seconds()
	m.set("detector.idle_msgs_per_s", float64(s1.Gauges["dineserve_rt_msgs_delivered"]-s0.Gauges["dineserve_rt_msgs_delivered"])/secs, "1/s")
	m.set("detector.idle_cpu_pct", 100*(cpu1-cpu0).Seconds()/secs, "%")
	m.set("core.idle_steps_per_s", float64(s1.Gauges["dineserve_rt_steps"]-s0.Gauges["dineserve_rt_steps"])/secs, "1/s")
	if msg := fault.Load(); msg != nil {
		return errors.New(*msg)
	}
	return nil
}

// probeCrashUnblock is the paper's wait-freedom as a number. On the fully
// loaded ring (every diner always hungry, whatever the workload's own load
// is) the client granted diner `victim` keeps the critical section, so the
// victim holds both its forks and both ring neighbours are waiting on it;
// the victim's process is then crashed. The metric is how long after the
// crash the later of the two neighbours is granted: its ◇P module must
// first suspect the victim (≈ HBTimeout × Tick). The victim restarts, and
// its client releases, before the load stops, so every session finishes.
func probeCrashUnblock(m metricSet, sp serveSpec, seed int64, dir string) error {
	const victim = 3
	// The victim gets a connection of its own: the client holding its grant
	// blocks, and must not freeze other diners mid-meal with it.
	sp.conns = [][]int{{0, 2, 4, 6}, {1, 5, 7}, {victim}}
	l, _, err := boot(sp, seed, dir, victim)
	if err != nil {
		return err
	}
	select {
	case <-l.held:
	case <-time.After(replyTimeout):
		close(l.resume)
		l.halt()
		return errors.New("the victim was never granted")
	}
	crashed := l.since()
	if err := l.svc.ChaosCrash(victim, 0, 3500*time.Millisecond); err != nil {
		return err
	}
	time.Sleep(4 * time.Second)
	close(l.resume)
	time.Sleep(200 * time.Millisecond)
	l.halt()
	unblocked := map[int]int64{}
	for _, c := range l.clients {
		for _, o := range c.ops {
			if nb := o.diner == victim-1 || o.diner == victim+1; !nb || o.granted < crashed {
				continue
			}
			if first, ok := unblocked[o.diner]; !ok || o.granted < first {
				unblocked[o.diner] = o.granted
			}
		}
	}
	if len(unblocked) < 2 {
		return fmt.Errorf("only %d of the victim's neighbours were granted after the crash", len(unblocked))
	}
	m.set("detector.crash_unblock_ms", float64(max(unblocked[victim-1], unblocked[victim+1])-crashed)/1e6, "ms")
	return nil
}

// probeWAL times Append+Sync of one journal-sized record on the file
// system the run used, and recovery (wal.Open + lockproto.Replay) of the
// directory the run just wrote.
func probeWAL(m metricSet, runDir string) error {
	st, _, err := wal.Open(filepath.Join(filepath.Dir(runDir), "probe"), wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		return err
	}
	rec := lockproto.Rec{K: lockproto.RecGrant, D: 3, I: "c1-d3-12345", T: 23456}.Encode()
	var d []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		lsn, err := st.Append(rec)
		if err == nil {
			err = st.Sync(lsn)
		}
		if err != nil {
			st.Close()
			return err
		}
		d = append(d, time.Since(t0))
	}
	if err := st.Close(); err != nil {
		return err
	}
	m.set("wal.append_sync_us_p50", p50us(d), "us")

	t0 := time.Now()
	st, got, err := wal.Open(runDir, wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := lockproto.Replay(30000, got.Snapshot, got.Records); err != nil {
		return err
	}
	m.set("wal.recover_ms", float64(time.Since(t0))/1e6, "ms")
	return nil
}

// dirBytes sums the regular files directly under dir.
func dirBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return float64(n)
}

// isTmpfs reports whether dir sits on tmpfs (where fsync is free).
func isTmpfs(dir string) float64 {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil && st.Type == 0x01021994 {
		return 1
	}
	return 0
}

func probeSnapshot(m metricSet, reg *metrics.Registry) {
	const n = 200
	t0 := time.Now()
	for i := 0; i < n; i++ {
		reg.Snapshot()
	}
	m.set("metrics.snapshot_us", float64(time.Since(t0))/1e3/n, "us")
}

// probeKernel times the sim kernel's two primitives: a message delivery
// (two processes ping-ponging) and a guarded-action step.
func probeKernel(m metricSet) {
	const n = 200000
	k := sim.NewKernel(2, sim.WithDelay(sim.FixedDelay{D: 1}))
	k.Handle(0, "x", func(sim.Message) { k.Send(0, 1, "x", nil) })
	k.Handle(1, "x", func(sim.Message) { k.Send(1, 0, "x", nil) })
	k.Send(0, 1, "x", nil)
	t0 := time.Now()
	k.Run(n)
	m.set("sim.kernel.ns_per_event", float64(time.Since(t0))/n, "ns")

	k = sim.NewKernel(1, sim.WithStepJitter(1))
	steps := 0
	k.AddAction(0, "inc", func() bool { return true }, func() { steps++ })
	t0 = time.Now()
	k.Run(n)
	if steps > 0 {
		m.set("sim.kernel.ns_per_step", float64(time.Since(t0))/float64(steps), "ns")
	}
}

// minOf runs fn reps times and returns its shortest duration.
func minOf(reps int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0))
	}
	return best
}
