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
// round, chosen by the process's rt.Actions rotation, the one the simulator
// steps its processes by. A perpetual action cycle needs a tempo instead:
// wire it through rt.Paced, which steps it at most once per tick.
//
// A process's steps are serialized by its step lock, not by its goroutine.
// The loop holds the lock while it runs a burst of steps; an Invoke at an
// idle process — started, alive, nothing in its mailbox — takes the lock
// itself and runs the call, and whatever that call made runnable, on the
// caller's goroutine, sparing the hand-off to the process's loop. Either way
// one step runs at a time at each process and each runs to completion, so
// process-local protocol state needs no locking, exactly as in the
// simulator.
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
	handlers []rt.Handler // by index in Runtime.ports; nil = none
	actions  rt.Actions   // touched only under step after Start

	// step is the step lock: whoever runs the process's steps holds it — the
	// loop for one burst, an inline Invoke for its call and what follows, or
	// Restart while it rewinds the process. running is true while a burst
	// holds it, so enqueue can leave the wake-up to the burst's runner.
	step    sync.Mutex
	running atomic.Bool

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

// Runtime is the real-time implementation of rt.Runtime.
type Runtime struct {
	cfg   Config
	tick  time.Duration
	procs []*process
	// ports numbers the ports handled here; like the handler tables it is
	// written only before Start.
	ports rt.Ports

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
			id:     rt.ProcID(i),
			notify: make(chan struct{}, 1),
		})
	}
	return r
}

// Start launches one goroutine per process. Registration (Handle/AddAction)
// must be complete before Start. The clock is set before started is: an
// Invoke that sees started may run a step inline at once, and its Now reads
// the clock.
func (r *Runtime) Start() {
	if r.started.Load() {
		panic("live: Start called twice")
	}
	r.start = time.Now()
	r.started.Store(true)
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
// blocks until every process goroutine has returned and no step runs
// anywhere: a step an Invoke caller was running inline finishes first, and
// none starts afterwards. It is idempotent.
func (r *Runtime) Stop() {
	if !r.stopped.CompareAndSwap(false, true) {
		return
	}
	close(r.stop)
	// Taking lifeMu here orders any in-flight Restart spawn before the wait.
	r.lifeMu.Lock()
	r.lifeMu.Unlock()
	r.wg.Wait()
	for _, pr := range r.procs {
		pr.step.Lock()
		pr.step.Unlock()
	}
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
func (r *Runtime) Handle(p rt.ProcID, port rt.Port, h rt.Handler) {
	r.mustWire("Handle")
	pr := r.procs[p]
	i := r.ports.Add(port)
	if i >= cap(pr.handlers) {
		// Double rather than fit: the index is runtime-wide, so a process's
		// next port is often far past its last one, and a fitted table would
		// be reallocated on almost every Handle.
		grown := make([]rt.Handler, i+1, max(i+1, 2*cap(pr.handlers), 8))
		copy(grown, pr.handlers)
		pr.handlers = grown
	} else if i >= len(pr.handlers) {
		pr.handlers = pr.handlers[:i+1] // the table only grows: the tail is nil
	}
	if pr.handlers[i] != nil {
		panic(fmt.Sprintf("live: duplicate handler for port %q at process %d", port, p))
	}
	pr.handlers[i] = h
}

func (r *Runtime) mustWire(what string) {
	if r.started.Load() {
		panic("live: " + what + " after Start")
	}
}

// Send implements rt.Runtime: ship the message to its destination's
// mailbox, through the installed link plan if any.
func (r *Runtime) Send(from, to rt.ProcID, port rt.Port, payload any) {
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
	i, ok := r.ports.Lookup(m.Port)
	if !ok || i >= len(pr.handlers) || pr.handlers[i] == nil {
		panic(fmt.Sprintf("live: no handler for port %q at process %d", m.Port, m.To))
	}
	h := pr.handlers[i]
	m.Port = r.ports.Port(i)
	if !r.enqueue(pr, func() { h(m) }, pr.gen.Load()) {
		r.dropped.Inc()
		return
	}
	r.delivered.Inc()
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
		if !r.stopped.Load() {
			r.enqueue(pr, fn, gen)
		}
	})
}

// Invoke runs fn at process p as one of its atomic steps — the bridge for
// external callers (servers, tests) into the process's serialized world. It
// reports whether the call was accepted (false: crashed or stopped).
//
// When p is idle — the runtime started, p alive, its mailbox empty and its
// step lock free — fn runs before Invoke returns, on the caller's
// goroutine, followed by what it made runnable at p (jobs it queued there,
// actions it enabled) up to rt.StepBudget rounds; work left beyond that
// goes to p's loop. Otherwise fn joins p's mailbox behind everything
// already there, as a delivery would: an inline step never overtakes a
// queued one. A step that Invokes another process runs it inline too when
// that process is idle; one that Invokes its own process, or a busy one,
// queues the call. Since fn may run before Invoke returns, the caller must
// not hold a lock that fn, or a step it makes runnable, takes.
func (r *Runtime) Invoke(p rt.ProcID, fn func()) bool {
	pr := r.procs[p]
	if pr.crashed.Load() || r.stopped.Load() {
		return false
	}
	gen := pr.gen.Load()
	if r.started.Load() && pr.step.TryLock() {
		if !pr.pending() {
			return r.runInline(pr, fn, gen)
		}
		pr.step.Unlock()
	}
	return r.enqueue(pr, fn, gen)
}

// runInline runs fn and the burst it starts with pr's step lock held, which
// the caller took, and releases it. The incarnation and stopped are read
// again under the lock: a Crash or Stop that landed since Invoke's first
// look refuses the call, and Restart, which takes the lock, finds no step of
// the dead incarnation still running.
func (r *Runtime) runInline(pr *process, fn func(), gen int64) bool {
	if pr.crashed.Load() || pr.gen.Load() != gen || r.stopped.Load() {
		pr.step.Unlock()
		return false
	}
	if r.burst(pr, fn) {
		wake(pr) // the loop takes over what is left
	}
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
	// An Invoke caller may still be inside a step of the dead incarnation:
	// the step lock waits it out, so none runs after Restart returns, and
	// keeps the new loop from stepping before reboot is queued.
	pr.step.Lock()
	defer pr.step.Unlock()
	pr.actions.Rewind()
	r.lifeMu.Lock()
	defer r.lifeMu.Unlock()
	if r.stopped.Load() {
		return false
	}
	// Discard the mailbox, queue reboot and clear the crashed flag in one
	// critical section of mu, the one enqueue checks the incarnation in: a
	// job accepted before the crash sits in the discarded mailbox, one
	// refused during it never lands, and one accepted after it queues behind
	// reboot — so no job ever reaches the stale pre-reset protocol state.
	pr.mu.Lock()
	pr.queue = nil
	if reboot != nil {
		pr.queue = append(pr.queue, reboot)
	}
	pr.crashed.Store(false)
	pr.mu.Unlock()
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

// enqueue appends one job to pr's mailbox, unless pr has crashed or moved
// past incarnation gen since the job was accepted, and reports whether it
// did. It wakes pr's loop only if the job may otherwise go unseen: on the
// mailbox's empty → non-empty edge, and only while no burst runs there. The
// mailbox is unbounded: backpressure would let two processes sending to
// each other deadlock, and protocol traffic here is self-limiting
// (request/grant cycles, periodic heartbeats).
//
// No wake-up is lost. A job appended to a non-empty mailbox sits behind one
// whose own append was covered, and whoever dequeues that one keeps going
// (burst) until the mailbox is empty or hands on what is left. A job whose
// append saw a burst running is covered by the burst's runner: enqueue
// appends under mu and then loads running, while burst stores running =
// false and then reads the mailbox under mu. Either enqueue's load follows
// the store and it sends the wake itself, or the runner's read follows the
// append and it finds the job.
func (r *Runtime) enqueue(pr *process, job func(), gen int64) bool {
	pr.mu.Lock()
	if pr.crashed.Load() || pr.gen.Load() != gen {
		pr.mu.Unlock()
		return false
	}
	edge := len(pr.queue) == 0
	pr.queue = append(pr.queue, job)
	pr.mu.Unlock()
	if edge && !pr.running.Load() {
		wake(pr)
	}
	return true
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

// pending reports whether pr's mailbox holds a job.
func (pr *process) pending() bool {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return len(pr.queue) > 0
}

// burst runs pr's steps with its step lock held, which the caller took,
// and releases the lock. It runs rounds of at most one job — job first, if
// given, then the mailbox's head — and one action step, so neither starves
// the other: a message flood cannot hold off the action system, a
// permanently enabled action cannot hold off jobs, and the rotation gives
// weak fairness among the actions. It stops at a round that runs nothing,
// at a crash or Stop, or after rt.StepBudget rounds, and reports whether
// the budget ran out with work possibly left.
//
// running is set for the burst's length. Letting go, burst clears it, drops
// the lock and then reads the mailbox, waking the loop for any job that
// arrived meanwhile — the read enqueue's ordering argument relies on.
func (r *Runtime) burst(pr *process, job func()) (more bool) {
	pr.running.Store(true)
	for n := 0; ; n++ {
		if n == rt.StepBudget {
			r.yields.Inc()
			more = true
			break
		}
		if r.stopped.Load() || pr.crashed.Load() {
			break
		}
		if job == nil {
			job = pr.dequeue()
		}
		ran := job != nil
		if ran {
			job()
			job = nil
			if pr.crashed.Load() {
				break
			}
		}
		if pr.actions.Step() {
			r.steps.Inc()
			ran = true
		}
		if !ran {
			break
		}
	}
	pr.running.Store(false)
	pr.step.Unlock()
	if pr.pending() {
		wake(pr)
	}
	return more
}

// loop is the per-process scheduler: a burst whenever there is work, then
// sleep until a job arrives. Nothing here is rationed by time (rt.Paced
// rations a cycle through its own one-tick timers). A burst that exhausts
// rt.StepBudget yields the processor and carries on — no sleep, so an action
// never waits out a tick it does not need.
func (r *Runtime) loop(pr *process) {
	for {
		if r.stopped.Load() || pr.crashed.Load() {
			return
		}
		pr.step.Lock()
		if r.burst(pr, nil) {
			runtime.Gosched()
			continue
		}
		select {
		case <-pr.notify:
		case <-r.stop:
			return
		}
	}
}
