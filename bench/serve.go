package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dinesvc"
	"repro/internal/lockproto"
	"repro/internal/metrics"
)

// replyTimeout bounds every wait for a server event; an op that exceeds it
// counts as failed and ends the run.
const replyTimeout = 10 * time.Second

// The window is read through a frame of frameLen that slides along it in
// steps of frameStep. Every end-to-end metric is computed per frame and
// reported as its value in the quietest frame (see quiet): two seconds hold
// enough ops for a tail percentile on the slowest workload, and half-second
// steps let the frame settle on the calmest two seconds wherever they fall.
const (
	frameLen  = 2 * time.Second
	frameStep = 500 * time.Millisecond
	perFrame  = int(frameLen / frameStep)
)

// quiet is the per-frame value on the side the host cannot push it to: the
// lowest latency or cost, the highest rate. On this class of host (2 shared
// cores) a neighbour's burst slows the program for seconds to minutes at a
// time and never speeds it up, so the median frame moves with the host
// while the best frame repeats. It is the served workloads' form of the sim
// campaign's min-of-passes; what it hides — the slow-down inside the
// window — the traced run reports as window.ops_per_s_first5 / _last5.
func quiet(perFrame []float64, lowerIsBetter bool) float64 {
	best := perFrame[0]
	for _, v := range perFrame[1:] {
		if (v < best) == lowerIsBetter {
			best = v
		}
	}
	return best
}

// serveSpec is one served workload: the table it boots and which diners
// each connection keeps hungry.
type serveSpec struct {
	name    string
	n       int
	extract bool
	durable bool
	conns   [][]int // diners owned by each connection
}

var serveSpecs = []serveSpec{
	{name: "solo", n: 3, conns: [][]int{{0}}},
	{name: "ring_extract", n: 8, extract: true, conns: [][]int{{0, 4}, {2, 6}}},
	{name: "ring_durable", n: 8, durable: true, conns: [][]int{{0, 4}, {1, 5}}},
}

// config is dineserve's flag defaults, except HBTimeout: 3000 ticks (3 s)
// instead of 600, so a sub-second host stall cannot manufacture a false
// suspicion and with it a legitimate ◇WX mistake the oracle would count.
//
// fatal receives the service's unrecoverable faults. The default Fatalf
// panics, and Drain can trip it on a healthy durable service: it closes the
// WAL while the table's janitor may still be inside a pass, whose clock
// record then hits "append on closed store". The hook ends the calling
// goroutine instead of the process, and the caller decides whether the
// fault came before the drain (a failure) or during it (that race).
func (sp serveSpec) config(dataDir string, fatal func(msg string)) dinesvc.Config {
	cfg := dinesvc.Config{
		N: sp.n, Tables: 1, Topology: "ring",
		Tick: time.Millisecond, HBTimeout: 3000,
		Extract: sp.extract,
		Lease:   30 * time.Second, MaxInflight: 4096,
		FlushDelay: 500 * time.Microsecond, SnapRecords: 4096,
		Fatalf: func(format string, args ...any) {
			fatal(fmt.Sprintf(format, args...))
			runtime.Goexit()
		},
	}
	if sp.durable {
		cfg.DataDir = dataDir
		cfg.Fsync = "interval"
	}
	return cfg
}

// serveOpts sizes one run of a served workload.
type serveOpts struct {
	seed   int64
	boots  int           // set-ups timed; the last one carries the load
	warmup time.Duration // after the first grant, before the window
	window time.Duration
	traced bool
	quick  bool   // smoke test: shorten the idle probe, skip the crash probe
	outDir string // WAL directories and the span file go here
}

// op is one granted session as the client saw it, times in ns since the
// load's base.
type op struct {
	diner    int
	granted  int64
	latency  int64 // acquire sent → granted received
	released int64 // released received; 0 while outstanding
}

// sessionSpan is the traced form of an op: the session and its two waits.
type sessionSpan struct {
	diner                            int
	id                               string
	acquire, granted, relSent, relOK int64
}

// load is one booted service with its closed-loop clients.
type load struct {
	sp      serveSpec
	svc     *dinesvc.Service
	dir     string
	base    time.Time
	clients []*client
	wg      sync.WaitGroup

	holding  []atomic.Bool // diner is inside [granted received, release sent]
	stop     atomic.Bool   // finish outstanding sessions, start no more
	tracing  atomic.Bool   // new sessions record spans
	draining atomic.Bool   // Drain has been called

	// The crash probe's hook: the client that is granted diner holdDiner
	// closes held and keeps the critical section until resume is closed.
	// Nil channels (every other load) disable it.
	holdDiner    int
	held, resume chan struct{}

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string
}

func (l *load) fail(format string, args ...any) {
	l.failed.Add(1)
	l.failMu.Lock()
	if len(l.failures) < 8 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
	l.failMu.Unlock()
}

func (l *load) since() int64 { return int64(time.Since(l.base)) }

// dinerState is a client's view of the one session it keeps on a diner.
type dinerState struct {
	seq     int
	id      string
	waiting string // event the session expects next: granted or released
	acquire int64
	relSent int64
	opIdx   int
	traced  bool
}

// client is one connection and the reactive goroutine that owns it: on
// granted it releases, on released it acquires again. It never has more
// than one session outstanding per diner it owns.
type client struct {
	l      *load
	idx    int
	conn   net.Conn
	er     *lockproto.EventReader
	diners []int
	st     []dinerState // indexed by diner
	buf    []byte
	first  chan struct{} // closed at the first grant

	heldOnce bool // the crash probe's hold has been served

	ops   []op
	spans []sessionSpan
}

func (c *client) send(op string, d int) error {
	c.buf = lockproto.AppendRequest(c.buf[:0], &lockproto.Request{Op: op, Diner: d, ID: c.st[d].id})
	c.buf = append(c.buf, '\n')
	_, err := c.conn.Write(c.buf)
	return err
}

func (c *client) acquire(d int) error {
	st := &c.st[d]
	st.seq++
	st.id = "c" + strconv.Itoa(c.idx) + "-d" + strconv.Itoa(d) + "-" + strconv.Itoa(st.seq)
	st.waiting = lockproto.EvGranted
	st.traced = c.l.tracing.Load()
	c.l.attempted.Add(1)
	st.acquire = c.l.since()
	return c.send(lockproto.OpAcquire, d)
}

// run drives the connection until stop is set and every owned diner's
// session has been released, or until the first failure.
func (c *client) run(rng *rand.Rand) {
	l := c.l
	defer l.wg.Done()
	defer c.conn.Close()
	// Seeded start stagger: the order and spacing of the first acquires.
	order := append([]int(nil), c.diners...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, d := range order {
		time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		if err := c.acquire(d); err != nil {
			l.fail("conn %d: write: %v", c.idx, err)
			return
		}
	}
	active := len(c.diners)
	sawFirst := false
	for active > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
			l.fail("conn %d: set deadline: %v", c.idx, err)
			return
		}
		var ev lockproto.Event
		if err := c.er.Read(&ev); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				l.fail("conn %d: no reply within %v", c.idx, replyTimeout)
			} else {
				l.fail("conn %d: read: %v", c.idx, err)
			}
			return
		}
		now := l.since()
		if ev.Ev == lockproto.EvError {
			l.fail("conn %d: server error for %s: %s", c.idx, ev.ID, ev.Msg)
			return
		}
		if ev.Diner < 0 || ev.Diner >= len(c.st) || c.st[ev.Diner].id != ev.ID || c.st[ev.Diner].waiting != ev.Ev {
			// A second granted for a session already released is a double
			// grant; anything else unexpected is a protocol error.
			l.fail("conn %d: unexpected %s for diner %d id %s", c.idx, ev.Ev, ev.Diner, ev.ID)
			return
		}
		d := ev.Diner
		st := &c.st[d]
		switch ev.Ev {
		case lockproto.EvGranted:
			l.holding[d].Store(true)
			// Both neighbours' flags are cleared before their release is
			// sent, so a set flag here means the server had two adjacent
			// diners in the critical section at once.
			for _, nb := range []int{(d + 1) % l.sp.n, (d + l.sp.n - 1) % l.sp.n} {
				if l.holding[nb].Load() {
					l.fail("diners %d and %d held the critical section together", d, nb)
				}
			}
			st.opIdx = len(c.ops)
			c.ops = append(c.ops, op{diner: d, granted: now, latency: now - st.acquire})
			if !sawFirst {
				sawFirst = true
				close(c.first)
			}
			if l.held != nil && d == l.holdDiner && !c.heldOnce {
				c.heldOnce = true
				close(l.held)
				<-l.resume
			}
			l.holding[d].Store(false)
			st.waiting = lockproto.EvReleased
			st.relSent = l.since()
			if err := c.send(lockproto.OpRelease, d); err != nil {
				l.fail("conn %d: write: %v", c.idx, err)
				return
			}
		case lockproto.EvReleased:
			c.ops[st.opIdx].released = now
			if st.traced {
				c.spans = append(c.spans, sessionSpan{
					diner: d, id: st.id, acquire: st.acquire,
					granted: c.ops[st.opIdx].granted, relSent: st.relSent, relOK: now,
				})
			}
			if l.stop.Load() {
				st.waiting = ""
				active--
				continue
			}
			if err := c.acquire(d); err != nil {
				l.fail("conn %d: write: %v", c.idx, err)
				return
			}
		}
	}
}

// boot builds the service, opens the listener, connects the clients and
// waits until every connection has seen its first grant. The returned
// duration is that whole span: what a user waits between starting the
// service and holding a lock. hold arms the crash probe's hook on that
// diner (-1: none).
func boot(sp serveSpec, seed int64, dir string, hold int) (*load, time.Duration, error) {
	t0 := time.Now()
	l := &load{sp: sp, dir: dir, base: t0, holding: make([]atomic.Bool, sp.n)}
	if hold >= 0 {
		l.holdDiner, l.held, l.resume = hold, make(chan struct{}), make(chan struct{})
	}
	svc, err := dinesvc.New(sp.config(dir, func(msg string) {
		if !l.draining.Load() {
			l.fail("service fault: %s", msg)
		}
	}))
	if err != nil {
		return nil, 0, err
	}
	l.svc = svc
	ln, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	for i, diners := range sp.conns {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			l.halt()
			return nil, 0, err
		}
		c := &client{
			l: l, idx: i, conn: conn, er: lockproto.NewEventReader(conn),
			diners: diners, st: make([]dinerState, sp.n), first: make(chan struct{}),
		}
		l.clients = append(l.clients, c)
		l.wg.Add(1)
		go c.run(rand.New(rand.NewSource(seed + int64(i))))
	}
	deadline := time.After(replyTimeout)
	for _, c := range l.clients {
		select {
		case <-c.first:
		case <-deadline:
			l.halt()
			return nil, 0, fmt.Errorf("%s: no first grant within %v: %v", sp.name, replyTimeout, l.failures)
		}
	}
	return l, time.Since(t0), nil
}

// halt lets every outstanding session finish, waits for the clients, and
// drains the service. It returns how long Drain took.
func (l *load) halt() time.Duration {
	l.stop.Store(true)
	l.wg.Wait()
	l.draining.Store(true)
	t0 := time.Now()
	l.svc.Drain(5 * time.Second)
	return time.Since(t0)
}

// conservation checks the registry's session ledger: every grant is either
// released or still held.
func conservation(snap metrics.Snapshot) error {
	granted := snap.Counters["dineserve_sessions_granted_total"]
	regranted := snap.Counters["dineserve_sessions_regranted_total"]
	released := snap.Counters["dineserve_sessions_released_total"]
	held := snap.Gauges["dineserve_sessions_held"]
	if granted+regranted != released+held {
		return fmt.Errorf("granted %d + regranted %d != released %d + held %d", granted, regranted, released, held)
	}
	return nil
}

// result is what every workload hands back to main.
type result struct {
	attempted int64
	failed    int64
	failures  []string
	endToEnd  metricSet
	layers    metricSet // traced runs only
	notes     []string  // human-readable lines printed above the JSON
}

// runServe runs one served workload: opts.boots timed set-ups, then on the
// last one a warm-up and the measured window.
func runServe(sp serveSpec, opts serveOpts) (*result, error) {
	res := &result{endToEnd: metricSet{}}
	sb := newSpanBook(opts.traced)

	// Every service this run boots gets its own fresh WAL directory under
	// one parent, removed at the end. The issue asked for tmpfs; the
	// benchmark contract confines writes to the checkout, so the parent
	// lives under outDir and wal.dir_is_tmpfs reports what that is.
	walParent := filepath.Join(opts.outDir, fmt.Sprintf("wal-%s-%d", sp.name, os.Getpid()))
	if sp.durable {
		defer os.RemoveAll(walParent)
	}

	var setups []float64
	var l *load
	for i := 0; i < opts.boots; i++ {
		dir := ""
		if sp.durable {
			dir = filepath.Join(walParent, "boot-"+strconv.Itoa(i))
		}
		t0 := time.Now()
		var d time.Duration
		var err error
		if l, d, err = boot(sp, opts.seed+int64(100*i), dir, -1); err != nil {
			return nil, err
		}
		sb.add(0, "setup", "", t0, t0.Add(d))
		setups = append(setups, d.Seconds())
		if i < opts.boots-1 {
			l.halt()
			res.attempted += l.attempted.Load()
			res.failed += l.failed.Load()
			res.failures = append(res.failures, l.failures...)
		}
	}
	reg := l.svc.Registry()

	time.Sleep(opts.warmup)

	// The window: clients run on their own; this goroutine only reads the
	// clocks at the step marks and, when traced, flips span recording every
	// frameLen so traced and untraced stretches interleave.
	step := frameStep
	if opts.window < frameLen {
		step = opts.window / time.Duration(perFrame)
	}
	steps := int(opts.window / step)
	var before, after probeEdge
	if opts.traced {
		before = readEdge(reg)
	}
	hostTotal0, hostSteal0 := hostCPU()
	winStart := time.Now()
	marks := []int64{l.since()} // step boundaries, ns since the load's base
	cpu := []time.Duration{cpuTime()}
	for s := 1; s <= steps; s++ {
		l.tracing.Store(opts.traced && tracedBlock((s-1)/perFrame))
		time.Sleep(time.Until(winStart.Add(time.Duration(s) * step)))
		marks = append(marks, l.since())
		cpu = append(cpu, cpuTime())
	}
	l.tracing.Store(false)
	hostTotal1, hostSteal1 := hostCPU()
	t0, t1 := marks[0], marks[steps]
	if opts.traced {
		after = readEdge(reg)
	}
	window := sb.add(0, "window", "", winStart, l.base.Add(time.Duration(t1)))

	drain := l.halt()
	sb.add(0, "dinesvc.drain", "", time.Now().Add(-drain), time.Now())
	snap := reg.Snapshot()
	if err := conservation(snap); err != nil {
		l.fail("registry: %v", err)
	}
	verdictStart := time.Now()
	if err := l.svc.Verdict(); err != nil {
		l.fail("verdict: %v", err)
	}
	verdict := time.Since(verdictStart)
	sb.add(0, "dinesvc.verdict", "", verdictStart, time.Now())

	// End-to-end numbers from the clients' own records: sort every op into
	// its step, then read each frame of perFrame consecutive steps.
	stepOf := func(ns int64) int {
		if ns < t0 || ns >= t1 {
			return -1
		}
		return sort.Search(steps, func(i int) bool { return marks[i+1] > ns })
	}
	lat := make([][]float64, steps)
	done := make([]float64, steps)
	var grants int
	var completed, latSum float64
	for _, c := range l.clients {
		for _, o := range c.ops {
			if i := stepOf(o.granted); i >= 0 {
				lat[i] = append(lat[i], float64(o.latency)/1e6)
				latSum += float64(o.latency) / 1e6
				grants++
			}
			if i := stepOf(o.released); i >= 0 {
				done[i]++
				completed++
			}
		}
	}
	type frame struct {
		lat  []float64
		done float64
	}
	frames := make([]frame, steps-perFrame+1)
	tail := 95.0
	for j := range frames {
		f := &frames[j]
		for i := j; i < j+perFrame; i++ {
			f.lat = append(f.lat, lat[i]...)
			f.done += done[i]
		}
		if len(f.lat) == 0 || f.done == 0 {
			l.fail("no session completed in frame %d of the window", j)
			continue
		}
		sort.Float64s(f.lat)
		tail = math.Min(tail, tailPct(len(f.lat)))
	}
	var p50s, tails, rates, cpus []float64
	for j, f := range frames {
		if len(f.lat) == 0 || f.done == 0 {
			continue
		}
		p50s = append(p50s, pct(f.lat, 50))
		tails = append(tails, pct(f.lat, tail))
		rates = append(rates, f.done/(float64(marks[j+perFrame]-marks[j])/1e9))
		cpus = append(cpus, float64(cpu[j+perFrame]-cpu[j])/1e6/f.done)
	}
	// Completed sessions per frameLen block: the traced run compares the
	// blocks that recorded spans with those that did not.
	blocks := make([]float64, steps/perFrame)
	for i := range blocks {
		for _, d := range done[i*perFrame : (i+1)*perFrame] {
			blocks[i] += d
		}
	}
	if len(p50s) == 0 {
		p50s, tails, rates, cpus = []float64{0}, []float64{0}, []float64{0}, []float64{0}
		completed = 1
	}
	m := res.endToEnd
	m.set("setup_s", median(setups), "s")
	m.set("op_p50_ms", quiet(p50s, true), "ms")
	m.set("op_p95_ms", quiet(tails, true), "ms")
	m.set("ops_per_s", quiet(rates, false), "1/s")
	res.notes = append(res.notes,
		fmt.Sprintf("%s: %d grants and %.0f completed sessions in %d frames of %v, %v apart; op_p95_ms is p%.0f; setups %.4f s; host steal %.1f %%",
			sp.name, grants, completed, len(frames), time.Duration(perFrame)*step, step, tail, setups, stealPct(hostTotal0, hostSteal0, hostTotal1, hostSteal1)),
		fmt.Sprintf("%s per frame: op_p50_ms %.3f", sp.name, p50s),
		fmt.Sprintf("%s per frame: op_p%.0f_ms %.2f", sp.name, tail, tails),
		fmt.Sprintf("%s per frame: ops_per_s %.0f", sp.name, rates),
		fmt.Sprintf("%s per frame: cpu_ms_per_op %.3f", sp.name, cpus))

	if opts.traced {
		tr := &serveTrace{
			sp: sp, opts: opts, l: l, sb: sb, window: window, before: before, after: after,
			t0: t0, t1: t1, done: blocks, completed: completed, clientMeanUs: 1e3 * latSum / float64(max(grants, 1)), snap: snap,
			cpuMsPerOp: float64(cpu[steps]-cpu[0]) / 1e6 / completed,
			drain:      drain, verdict: verdict,
		}
		if err := tr.report(res); err != nil {
			return nil, err
		}
	}

	res.attempted += l.attempted.Load()
	res.failed += l.failed.Load()
	res.failures = append(res.failures, l.failures...)
	return res, nil
}
