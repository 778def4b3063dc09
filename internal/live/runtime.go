// Package live executes protocol code in real time: each process is a
// goroutine with its own mailbox, timers are wall-clock, and messages travel
// over in-process channels — through the kernel's link adversary, a
// sim.LinkPlan installed with SetLinks, when there is one.
//
// Runtime implements rt.Runtime — the same interface the discrete-event
// simulator (internal/sim) implements — so the dining tables, failure
// detectors, and the paper's extraction run unmodified on both. What changes
// is the determinism contract: the simulator replays a run exactly from its
// seed, while here the scheduler is the operating system and timers run on
// the wall clock, so runs are not reproducible. The trace vocabulary is
// identical, which is what keeps the checkers (internal/checker)
// runtime-agnostic: a live run's record stream is validated by exactly the
// code that validates simulated runs.
//
// Execution model. Every process runs an event-driven loop: it sleeps
// until a message delivery, timer or injected call arrives, runs it, and then
// runs guarded actions for as long as some guard holds — one action per
// iteration, chosen by the process's rt.Actions rotation, the one the
// simulator steps its processes by. A perpetual action cycle needs a tempo
// instead: wire it through rt.Paced, which steps it at most once per tick.
// All of a process's handlers, timer callbacks, and action bodies execute on
// its own goroutine, so process-local protocol state needs no locking,
// exactly as in the simulator.
package live

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
)

// Config shapes a live runtime.
type Config struct {
	// N is the number of processes in the system.
	N int
	// Tick is the wall-clock duration of one rt.Time tick (default 1ms).
	// Protocol timer constants (heartbeat intervals, retry periods) are in
	// ticks, so Tick scales the whole system's tempo — including that of
	// action cycles wired through rt.Paced, one step per tick at each
	// process. Actions registered on the Runtime itself, and message and
	// timer handling, are never paced. Pacing carries the simulator's rule
	// that a step occupies time into real time, for the protocols that rely
	// on it: a permanently enabled action cycle — the extraction's witness
	// and subject threads dine forever — run unpaced spins its goroutine,
	// starves its peers' timer deliveries, and on a small host manufactures
	// false suspicions faster than ◇P converges.
	Tick time.Duration
	// Seed seeds the runtime's random source and the per-direction streams
	// an installed link plan draws from (default 1). Unlike the simulator,
	// seeding does not make runs reproducible — it only makes the randomness
	// well-defined, and a link plan's fault schedule a function of the seed.
	Seed int64
	// Tracer receives every emitted record; may be nil. Trace calls are
	// serialized by the runtime, so a plain *trace.Log works.
	Tracer rt.Tracer
}

// process is the runtime-side bookkeeping for one process.
type process struct {
	id       rt.ProcID
	handlers map[string]rt.Handler
	actions  rt.Actions // touched only by the loop goroutine after Start

	mu      sync.Mutex
	queue   []func() // pending jobs: deliveries, timers, injected calls
	notify  chan struct{}
	crashed atomic.Bool

	// gen is the incarnation counter: bumped by Crash, so timers scheduled
	// by a previous incarnation are dropped instead of firing into the state
	// of a restarted process.
	gen atomic.Int64
	// loopDone is closed when the current incarnation's loop goroutine
	// returns; Restart waits on it so two loops never share one mailbox.
	loopDone chan struct{}
}

// stepBudget bounds how many consecutive loop iterations a process runs
// without blocking before it yields the CPU, so a process that always has
// work — a message flood, an action cycle wired unpaced — shares its core
// instead of monopolizing it. It is deliberately not a Config field: nothing
// in the repository needs a second value.
const stepBudget = 64

// Runtime is the real-time implementation of rt.Runtime.
type Runtime struct {
	cfg   Config
	tick  time.Duration
	procs []*process

	// links is the installed link adversary (SetLinks); nil means reliable
	// channels, and Send then takes no lock.
	links atomic.Pointer[sim.LinkPlan]
	// linkMu guards linkRng: one random stream per direction (index
	// from*N+to), made on the direction's first message under a plan (the
	// table itself on the first such message at all).
	linkMu  sync.Mutex
	linkRng []*rand.Rand

	start   time.Time
	started atomic.Bool
	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
	// lifeMu orders goroutine spawns (Restart) against shutdown (Stop), so
	// wg.Add never races wg.Wait.
	lifeMu sync.Mutex

	emitMu sync.Mutex
	seq    int64
	tracer rt.Tracer

	rng *rand.Rand // over a locked source: safe for concurrent draws

	// The runtime's counts, read by name through Counter. dropped counts
	// every lost message, linkDropped the link adversary's share of them.
	steps, sent, delivered, dropped, yields metrics.Counter
	linkDropped, linkDuped                  metrics.Counter
}

var _ rt.Runtime = (*Runtime)(nil)

// lockedSource is a goroutine-safe rand.Source64.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// New creates a live runtime for cfg.N processes. Wire up protocol modules
// (which call Handle/AddAction) between New and Start.
func New(cfg Config) *Runtime {
	if cfg.N <= 0 {
		panic("live: Config.N must be positive")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	r := &Runtime{
		cfg:    cfg,
		tick:   cfg.Tick,
		tracer: cfg.Tracer,
		stop:   make(chan struct{}),
		rng:    rand.New(&lockedSource{src: rand.NewSource(cfg.Seed).(rand.Source64)}),
		start:  time.Now(),
	}
	for i := 0; i < cfg.N; i++ {
		r.procs = append(r.procs, &process{
			id:       rt.ProcID(i),
			handlers: make(map[string]rt.Handler),
			notify:   make(chan struct{}, 1),
		})
	}
	return r
}

// Start launches one goroutine per process. Registration (Handle/AddAction)
// must be complete before Start.
func (r *Runtime) Start() {
	if !r.started.CompareAndSwap(false, true) {
		panic("live: Start called twice")
	}
	r.start = time.Now()
	for _, pr := range r.procs {
		r.spawn(pr)
	}
}

// spawn launches one incarnation of pr's loop goroutine. Callers must hold
// lifeMu or be the single Start caller.
func (r *Runtime) spawn(pr *process) {
	done := make(chan struct{})
	pr.loopDone = done
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(done)
		r.loop(pr)
	}()
}

// Stop shuts the runtime down: process loops exit after finishing their
// current step, and pending timers and held messages become no-ops. Stop
// blocks until every process goroutine has returned. It is idempotent.
func (r *Runtime) Stop() {
	if !r.stopped.CompareAndSwap(false, true) {
		return
	}
	close(r.stop)
	// Taking lifeMu here orders any in-flight Restart spawn before the wait.
	r.lifeMu.Lock()
	r.lifeMu.Unlock()
	r.wg.Wait()
}

// N implements rt.Runtime.
func (r *Runtime) N() int { return len(r.procs) }

// Now implements rt.Runtime: wall-clock ticks since Start.
func (r *Runtime) Now() rt.Time { return rt.Time(time.Since(r.start) / r.tick) }

// Rand implements rt.Runtime. The returned source is safe for concurrent
// use by all processes.
func (r *Runtime) Rand() *rand.Rand { return r.rng }

// Crashed implements rt.Runtime: whether p was administratively crashed
// with Crash. (A live runtime has no other crash ground truth.)
func (r *Runtime) Crashed(p rt.ProcID) bool { return r.procs[p].crashed.Load() }

// AddAction implements rt.Runtime: the action runs as soon as a delivery,
// timer or Invoke leaves its guard true and the rotation reaches it. Must be
// called before Start.
func (r *Runtime) AddAction(p rt.ProcID, name string, guard func() bool, body func()) {
	r.mustWire("AddAction")
	r.procs[p].actions.Add(rt.Action{Name: name, Guard: guard, Body: body})
}

// Handle implements rt.Runtime. Must be called before Start.
func (r *Runtime) Handle(p rt.ProcID, port string, h rt.Handler) {
	r.mustWire("Handle")
	pr := r.procs[p]
	if _, dup := pr.handlers[port]; dup {
		panic(fmt.Sprintf("live: duplicate handler for port %q at process %d", port, p))
	}
	pr.handlers[port] = h
}

func (r *Runtime) mustWire(what string) {
	if r.started.Load() {
		panic("live: " + what + " after Start")
	}
}

// Send implements rt.Runtime: ship the message to its destination's
// mailbox, through the installed link plan if any.
func (r *Runtime) Send(from, to rt.ProcID, port string, payload any) {
	if r.stopped.Load() {
		return
	}
	r.sent.Inc()
	m := rt.Message{From: from, To: to, Port: port, Payload: payload}
	if lp := r.links.Load(); lp != nil {
		r.linkSend(lp, m)
		return
	}
	r.inject(m)
}

// SetLinks validates plan against N and installs it: from then on every
// message Send ships runs the plan's gauntlet, with the plan's windows
// read against Now (ticks since Start). Installing a second plan replaces
// the first; a plan that perturbs nothing restores reliable channels. It is
// the live mirror of sim.LinkPlan.Apply, and may be called at any time.
func (r *Runtime) SetLinks(plan sim.LinkPlan) error {
	if err := plan.Validate(r.N()); err != nil {
		return err
	}
	var lp *sim.LinkPlan
	if plan.Enabled() {
		lp = &plan
	}
	r.links.Store(lp)
	return nil
}

// linkSend runs m through lp in the kernel's order — reorder delay, then
// lp.Arrive's drop, duplicate and duplicate lag — drawing from the
// direction's own stream, so one link's traffic volume cannot perturb
// another link's fault sequence. It counts under the kernel's names: a drop
// in link.dropped, msg.dropped.link and msg.dropped, a duplicate in
// link.duped.
func (r *Runtime) linkSend(lp *sim.LinkPlan, m rt.Message) {
	r.linkMu.Lock()
	if r.linkRng == nil {
		r.linkRng = make([]*rand.Rand, len(r.procs)*len(r.procs))
	}
	i := int(m.From)*len(r.procs) + int(m.To)
	rng := r.linkRng[i]
	if rng == nil {
		rng = rand.New(rand.NewSource(r.cfg.Seed + int64(m.From)*1_000_003 + int64(m.To)*7_919))
		r.linkRng[i] = rng
	}
	var extra rt.Time
	if lp.ReorderMax > 0 {
		extra = rt.Time(rng.Int63n(int64(lp.ReorderMax) + 1))
	}
	drop, dupAfter := lp.Arrive(rng, m.From, m.To, r.Now())
	r.linkMu.Unlock()
	if drop {
		r.linkDropped.Inc()
		r.dropped.Inc()
		return
	}
	r.injectAfter(m, extra)
	if dupAfter > 0 {
		r.linkDuped.Inc()
		r.injectAfter(m, extra+dupAfter)
	}
}

// injectAfter delivers m after d ticks of wall time, unless the runtime
// has stopped by then.
func (r *Runtime) injectAfter(m rt.Message, d rt.Time) {
	if d <= 0 {
		r.inject(m)
		return
	}
	time.AfterFunc(time.Duration(d)*r.tick, func() {
		if !r.stopped.Load() {
			r.inject(m)
		}
	})
}

// inject delivers m: run the registered handler at the destination as one
// of its steps.
func (r *Runtime) inject(m rt.Message) {
	pr := r.procs[m.To]
	if pr.crashed.Load() {
		r.dropped.Inc()
		return
	}
	h, ok := pr.handlers[m.Port]
	if !ok {
		panic(fmt.Sprintf("live: no handler for port %q at process %d", m.Port, m.To))
	}
	r.delivered.Inc()
	r.enqueue(pr, func() { h(m) })
}

// After implements rt.Runtime: fn runs at process p after d ticks of wall
// time, as one of p's steps. Timers at crashed processes are dropped, and a
// timer scheduled by one incarnation never fires into a later one: the
// incarnation counter is captured at scheduling time and checked at fire
// time, so a crash permanently retires every timer armed before it.
func (r *Runtime) After(p rt.ProcID, d rt.Time, fn func()) {
	pr := r.procs[p]
	if d < 1 {
		d = 1
	}
	gen := pr.gen.Load()
	time.AfterFunc(time.Duration(d)*r.tick, func() {
		if r.stopped.Load() || pr.crashed.Load() || pr.gen.Load() != gen {
			return
		}
		r.enqueue(pr, fn)
	})
}

// Invoke runs fn at process p as one of its atomic steps — the bridge for
// external callers (servers, tests) into the process's serialized world. It
// reports whether the call was accepted (false: crashed or stopped).
func (r *Runtime) Invoke(p rt.ProcID, fn func()) bool {
	pr := r.procs[p]
	if pr.crashed.Load() || r.stopped.Load() {
		return false
	}
	r.enqueue(pr, fn)
	return true
}

// Crash administratively crashes p: its loop exits, and pending or future
// messages, timers and invocations addressed to it are dropped. Used by
// fault-injection tests and by operators; it emits the same "crash" trace
// record as the simulator's fault schedule.
func (r *Runtime) Crash(p rt.ProcID) {
	pr := r.procs[p]
	if pr.crashed.Swap(true) {
		return
	}
	// Retire every timer of the dead incarnation; Restart starts a new one.
	pr.gen.Add(1)
	r.Emit(rt.Record{P: p, Kind: "crash", Peer: -1})
	wake(pr)
	// Guards elsewhere may consult Crashed (schedule-fed oracles): give
	// every process a chance to re-examine its guards.
	for _, other := range r.procs {
		if !other.crashed.Load() {
			wake(other)
		}
	}
}

// Restart revives an administratively crashed process: the dead
// incarnation's mailbox is discarded (its timers already died with the
// generation bump in Crash), a "recover" trace record is emitted, reboot —
// typically a closure resetting the process's protocol modules to fresh
// state, e.g. forks.Table.Reset plus detector.Heartbeat.Reset — runs as the
// first step of the new incarnation, and a fresh loop goroutine is spawned.
// Handlers and actions registered before Start stay registered: a restart
// reuses the wiring but not the state.
//
// Restart returns false (and does nothing) if p is not crashed, or the
// runtime is stopped or not yet started.
//
// Semantics note: the runtime drops messages addressed to a crashed process,
// but an installed link plan may still hold pre-crash messages in flight
// (ReorderMax ticks, plus up to 8 for a duplicate). Protocol-level
// resynchronization (the forks sync handshake) is correct provided the
// crash→restart gap exceeds that longest hold, so the old incarnation's
// traffic has drained before the new one rejoins — the live analogue of the
// simulator's bounded-reorder axiom.
func (r *Runtime) Restart(p rt.ProcID, reboot func()) bool {
	pr := r.procs[p]
	if !r.started.Load() || r.stopped.Load() || !pr.crashed.Load() {
		return false
	}
	// The old loop exits promptly after Crash (it rechecks crashed between
	// jobs); wait so two incarnations never consume one mailbox.
	<-pr.loopDone
	pr.mu.Lock()
	pr.queue = nil
	pr.mu.Unlock()
	pr.actions.Rewind()
	r.lifeMu.Lock()
	defer r.lifeMu.Unlock()
	if r.stopped.Load() {
		return false
	}
	// Enqueue reboot before clearing the crashed flag: deliveries are dropped
	// while crashed, so reboot is guaranteed to be the new incarnation's first
	// job — no message ever reaches the stale pre-reset protocol state.
	if reboot != nil {
		r.enqueue(pr, reboot)
	}
	pr.crashed.Store(false)
	r.Emit(rt.Record{P: p, Kind: "recover", Peer: -1})
	r.spawn(pr)
	// Oracles and guards may consult Crashed: let everyone re-examine.
	for _, other := range r.procs {
		if !other.crashed.Load() {
			wake(other)
		}
	}
	return true
}

// Emit implements rt.Runtime. Records are stamped and forwarded to the
// tracer under one lock, so tracers need no synchronization of their own.
func (r *Runtime) Emit(rec rt.Record) {
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	rec.T = r.Now()
	r.seq++
	rec.Seq = r.seq
	if r.tracer != nil {
		r.tracer.Trace(rec)
	}
}

// Counter returns a named counter's current value; any other name reads 0.
// The runtime counts "steps" (action steps), "msg.sent", "msg.delivered",
// "msg.dropped", "yields" (step budgets exhausted) and, under an installed
// link plan, the kernel's "link.dropped" (= "msg.dropped.link") and
// "link.duped".
func (r *Runtime) Counter(name string) int64 {
	var c *metrics.Counter
	switch name {
	case "steps":
		c = &r.steps
	case "msg.sent":
		c = &r.sent
	case "msg.delivered":
		c = &r.delivered
	case "msg.dropped":
		c = &r.dropped
	case "yields":
		c = &r.yields
	case "link.dropped", "msg.dropped.link":
		c = &r.linkDropped
	case "link.duped":
		c = &r.linkDuped
	}
	return c.Value()
}

// enqueue appends one job to pr's mailbox and nudges its loop. The mailbox
// is unbounded: backpressure would let two processes sending to each other
// deadlock, and protocol traffic here is self-limiting (request/grant
// cycles, periodic heartbeats).
func (r *Runtime) enqueue(pr *process, job func()) {
	pr.mu.Lock()
	pr.queue = append(pr.queue, job)
	pr.mu.Unlock()
	wake(pr)
}

func wake(pr *process) {
	select {
	case pr.notify <- struct{}{}:
	default:
	}
}

func (pr *process) dequeue() func() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if len(pr.queue) == 0 {
		return nil
	}
	job := pr.queue[0]
	pr.queue[0] = nil
	pr.queue = pr.queue[1:]
	return job
}

// loop is the per-process scheduler. Each iteration runs at most one mailbox
// job and one action step, so neither starves the other: a message flood
// cannot hold off the action system, a permanently enabled action cannot
// hold off jobs, and the rotation gives weak fairness among the actions.
// With nothing to run the loop blocks until a job arrives.
//
// Nothing here is rationed by time (rt.Paced rations a cycle through its own
// one-tick timers). Busy iterations are bounded by stepBudget: after that
// many in a row the loop yields the processor and carries on — no sleep, so
// an action never waits out a tick it does not need.
func (r *Runtime) loop(pr *process) {
	budget := stepBudget
	for {
		if r.stopped.Load() || pr.crashed.Load() {
			return
		}
		ran := false
		if job := pr.dequeue(); job != nil {
			job()
			ran = true
			if pr.crashed.Load() {
				return
			}
		}
		if pr.actions.Step() {
			r.steps.Inc()
			ran = true
		}
		if ran {
			if budget--; budget == 0 {
				r.yields.Inc()
				runtime.Gosched()
				budget = stepBudget
			}
			continue
		}
		budget = stepBudget
		select {
		case <-pr.notify:
		case <-r.stop:
			return
		}
	}
}
