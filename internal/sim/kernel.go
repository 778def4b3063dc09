package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/rt"
)

// proc is the kernel-side bookkeeping for one process.
type proc struct {
	id          ProcID
	crashed     bool
	crashedAt   Time
	actions     rt.Actions
	stepPending bool
	// A recorded step (see Kernel.wake): drawn like any step, with no
	// guard holding, so it waits here instead of in the queue. dueSeq 0 =
	// none.
	dueAt    Time
	dueSeq   int64
	handlers []Handler // by the kernel's port index (Kernel.ports); nil = none registered
}

// elideIdleSteps is what NewKernel sets Kernel.elision to. It is on in
// every build; the exactness tests turn it off to run the same program with
// every step queued (SetElision, export_test.go).
var elideIdleSteps = true

// Kernel is a deterministic discrete-event simulator of an asynchronous
// message-passing system. It is single-threaded: protocol code runs inside
// kernel callbacks and must not spawn goroutines or block.
type Kernel struct {
	now      Time
	seq      int64
	queue    eventQueue
	procs    []*proc
	rng      *rand.Rand
	delay    DelayPolicy
	stepMax  Time        // next step scheduled within [1, stepMax] ticks
	stepGap  boundedDraw // draws the gap to the next step minus one: [0, stepMax)
	tracer   Tracer
	inFlight int
	stopped  bool
	links    *LinkPlan // fair-lossy link adversary (nil = reliable channels)

	// Idle-step elision (see wake). While recording — inside the runs of a
	// kernel with elision — a wake that finds no guard holding records its
	// step at the process instead of queueing it. curSeq is the seq of the
	// event firing, so (now, curSeq) is where the run stands in the queue's
	// order; idleSteps counts the processes holding a recorded step; lapsed
	// counts the recorded steps that fell due without ever being queued.
	elision   bool
	recording bool
	curSeq    int64
	idleSteps int
	lapsed    int64

	// The kernel is single-threaded, so it counts its own work in plain
	// ints; Counter and Counters read them by name.
	steps        int64
	sent         int64
	delivered    int64
	droppedCrash int64 // receiver dead at delivery time
	droppedLink  int64 // eaten by the link adversary
	linkDuped    int64

	// The first Handle or send of a port gives it the kernel's next port
	// index; events carry the index, and handlers and per-port counts are
	// slices indexed by it. An interned rt.Port is resolved without hashing
	// its name.
	ports    rt.Ports
	portSent []portSent // by port index

	// Robustness hooks (see robust.go).
	triggers  []*trigger      // armed state-predicate crashes
	budget    Budget          // run budget; zero fields = unlimited
	budgetAt  int64           // events count at which checkBudget next runs
	exhausted *BudgetExceeded // set when the watchdog stops the run
	events    int64           // total events processed
	tail      []Record        // ring buffer of recent records
	tailLen   int64           // records ever emitted
}

// portSent counts the messages sent on one port, under the port's prefix:
// its name up to the first '/', the namespace "msg.sent:<prefix>" sums over.
type portSent struct {
	prefix string
	n      int64
}

// Option configures a Kernel at construction time.
type Option func(*Kernel)

// WithDelay sets the message delay policy (default UniformDelay{1, 8}).
func WithDelay(d DelayPolicy) Option { return func(k *Kernel) { k.delay = d } }

// WithSeed seeds the kernel's deterministic random source (default 1).
func WithSeed(seed int64) Option {
	return func(k *Kernel) { k.rng = rand.New(rand.NewSource(seed)) }
}

// WithTracer attaches a Tracer that receives every emitted Record.
func WithTracer(t Tracer) Option { return func(k *Kernel) { k.tracer = t } }

// WithStepJitter bounds the gap between consecutive steps of a live process
// (default 3). Larger values give the adversary coarser interleavings.
func WithStepJitter(maxGap Time) Option {
	return func(k *Kernel) { k.stepMax = max(1, maxGap) }
}

// NewKernel creates a kernel simulating n processes with ids 0..n-1.
func NewKernel(n int, opts ...Option) *Kernel {
	k := &Kernel{
		delay:   UniformDelay{Min: 1, Max: 8},
		stepMax: 3,
		elision: elideIdleSteps,
	}
	for i := 0; i < n; i++ {
		k.procs = append(k.procs, &proc{id: ProcID(i), crashedAt: Never})
	}
	for _, o := range opts {
		o(k)
	}
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(1))
	}
	k.stepGap = newBoundedDraw(int64(k.stepMax))
	return k
}

// N returns the number of processes.
func (k *Kernel) N() int { return len(k.procs) }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source for protocol modules
// that need randomness (all randomness must come from here to keep runs
// reproducible).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Crashed reports whether p has crashed (ground truth; only fault-schedule
// aware oracles may consult this).
func (k *Kernel) Crashed(p ProcID) bool { return k.procs[p].crashed }

// CrashTime returns the time p crashed, or Never.
func (k *Kernel) CrashTime(p ProcID) Time { return k.procs[p].crashedAt }

// Live reports whether p has not crashed.
func (k *Kernel) Live(p ProcID) bool { return !k.procs[p].crashed }

// AddAction registers a guarded action at process p. Guards must be
// side-effect-free predicates over p's local state; bodies are atomic steps.
// The kernel judges p's guards at every wake-up of p, and queues a step
// only if one holds (see wake), so a guard may read only what cannot turn
// it true unseen: p's own state, which changes only in p's handlers, timers
// and actions, each of which ends in a wake-up of p; the crash ground truth,
// on whose every change the kernel re-judges all processes; and the clock,
// only where a timer at p marks when the guard can turn true, or where time
// can only turn it false.
func (k *Kernel) AddAction(p ProcID, name string, guard func() bool, body func()) {
	pr := k.procs[p]
	pr.actions.Add(Action{Name: name, Guard: guard, Body: body})
	k.wake(p)
}

// Handle registers the message handler for the given port at process p.
// Registering twice for the same port is a programming error.
func (k *Kernel) Handle(p ProcID, port rt.Port, h Handler) {
	pr := k.procs[p]
	id := k.portID(port)
	if int(id) >= len(pr.handlers) {
		// Cover every port interned so far, with room to double: a process
		// serves a handful of ports (detector, dining box, transport), so
		// this allocates once or twice per process, not once per Handle.
		grown := make([]Handler, max(k.ports.Len(), 2*len(pr.handlers), 8))
		copy(grown, pr.handlers)
		pr.handlers = grown
	}
	if pr.handlers[id] != nil {
		panic(fmt.Sprintf("sim: duplicate handler for port %q at process %d", port, p))
	}
	pr.handlers[id] = h
}

// portID returns port's index, numbering the port on first use.
func (k *Kernel) portID(port rt.Port) int32 {
	id := k.ports.Add(port)
	if id == len(k.portSent) {
		k.portSent = append(k.portSent, portSent{prefix: portPrefix(port.String())})
	}
	return int32(id)
}

// handler returns the handler for port index id at pr, panicking if there is
// none: a message to an unhandled port is a wiring bug.
func (k *Kernel) handler(pr *proc, id int32) Handler {
	if int(id) < len(pr.handlers) && pr.handlers[id] != nil {
		return pr.handlers[id]
	}
	panic(fmt.Sprintf("sim: no handler for port %q at process %d", k.ports.Port(int(id)), pr.id))
}

// Send transmits a message on the simulated network. Over the default
// reliable non-FIFO channels delivery is scheduled according to the delay
// policy; under an installed LinkPlan the message may additionally be
// dropped, duplicated, or further delayed at delivery time. Messages to
// processes that have crashed by delivery time are dropped (the paper only
// guarantees delivery to correct processes).
func (k *Kernel) Send(from, to ProcID, port rt.Port, payload any) {
	k.sent++
	id := k.portID(port)
	k.portSent[id].n++
	d := k.delay.Delay(k.rng, from, to, k.now)
	if d < 1 {
		d = 1
	}
	d += k.reorderExtra()
	k.inFlight++
	e := event{kind: evArrive, port: id, from: int32(from), to: int32(to), payload: payload}
	k.scheduleEvent(k.now+d, &e)
}

// After schedules fn to run at process p after d ticks (a local timer). The
// timer is discarded if p has crashed by then.
func (k *Kernel) After(p ProcID, d Time, fn func()) {
	if d < 1 {
		d = 1
	}
	e := event{kind: evTimer, to: int32(p), fn: fn}
	k.scheduleEvent(k.now+d, &e)
}

// CrashAt schedules process p to crash at time t: from t on it takes no
// steps, receives no messages, and fires no timers.
func (k *Kernel) CrashAt(p ProcID, t Time) {
	k.schedule(t, func() { k.crashNow(p, "") })
}

// crashNow crashes p immediately; why (may be empty) lands in the crash
// record's Note for diagnostics.
func (k *Kernel) crashNow(p ProcID, why string) {
	pr := k.procs[p]
	if pr.crashed {
		return
	}
	pr.crashed = true
	pr.crashedAt = k.now
	k.Emit(Record{P: p, Kind: "crash", Peer: -1, Note: why})
	// A guard may read the crash ground truth (rt.Runtime's contract).
	k.rejudge()
}

// Emit records a trace event, stamping it with the current time and a fresh
// sequence number. The record always enters the kernel's diagnostic tail
// (see Tail); it is forwarded to the Tracer only if one is attached.
func (k *Kernel) Emit(r Record) {
	r.T = k.now
	k.seq++
	r.Seq = k.seq
	if k.tail == nil {
		k.tail = make([]Record, tailCap)
	}
	k.tail[k.tailLen%int64(len(k.tail))] = r
	k.tailLen++
	if k.tracer != nil {
		k.tracer.Trace(r)
	}
}

// Counter returns a named kernel counter (e.g. "msg.sent", "msg.dropped",
// "steps", "msg.sent:dx"); a name nothing counts under reads 0.
// "msg.dropped" is the sum of its two causes, "msg.dropped.crash" (receiver
// dead at delivery time) and "msg.dropped.link" (eaten by the link
// adversary, also read as "link.dropped").
func (k *Kernel) Counter(name string) int64 {
	switch name {
	case "steps":
		return k.steps
	case "msg.sent":
		return k.sent
	case "msg.delivered":
		return k.delivered
	case "msg.dropped":
		return k.droppedCrash + k.droppedLink
	case "msg.dropped.crash":
		return k.droppedCrash
	case "msg.dropped.link", "link.dropped":
		return k.droppedLink
	case "link.duped":
		return k.linkDuped
	}
	prefix, ok := strings.CutPrefix(name, "msg.sent:")
	if !ok {
		return 0
	}
	var n int64
	for _, ps := range k.portSent {
		if ps.prefix == prefix {
			n += ps.n
		}
	}
	return n
}

// counts names the kernel's counts.
func (k *Kernel) counts() map[string]int64 {
	c := map[string]int64{}
	for _, name := range []string{"steps", "msg.sent", "msg.delivered", "msg.dropped",
		"msg.dropped.crash", "msg.dropped.link", "link.dropped", "link.duped"} {
		c[name] = k.Counter(name)
	}
	for _, ps := range k.portSent {
		c["msg.sent:"+ps.prefix] += ps.n
	}
	return c
}

// Counters returns a sorted "name=value" snapshot of every counter that has
// counted something.
func (k *Kernel) Counters() []string {
	all := k.counts()
	names := make([]string, 0, len(all))
	for n, v := range all {
		if v != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		names[i] = fmt.Sprintf("%s=%d", n, all[n])
	}
	return names
}

// Run executes the simulation until virtual time exceeds horizon or no
// events remain (quiescence). It returns the time at which the run stopped.
func (k *Kernel) Run(horizon Time) Time {
	end, _ := k.runLoop(horizon, nil)
	return end
}

// runLoop is the shared event loop behind Run and RunUntil. After every
// event that runs — every event but the recorded steps that lapse unqueued
// (see wake), which run nothing — it runs the robustness hooks: armed crash
// triggers and, when a limit may have been exceeded, the budget watchdog
// (see checkBudget). cond (may be nil) is the RunUntil early-exit
// predicate. The recorded steps count where they would have fired: each
// limit is compared with the count plus every step still recorded, and
// settle and lapseDue retire those the run has passed as it returns.
func (k *Kernel) runLoop(horizon Time, cond func() bool) (Time, bool) {
	if cond != nil && cond() {
		return k.now, true
	}
	k.recording = k.elision
	defer func() { k.recording = false }()
	if k.stopped {
		// A stopped kernel runs one event per Run, and an idle step is one.
		k.unelide()
	} else {
		k.rejudge() // the caller may have changed state since the last run
	}
	var e event
	for {
		if !k.queue.pop(horizon, &e) {
			if k.settle(horizon) {
				return k.now, false
			}
			break
		}
		k.now, k.curSeq = e.at, e.seq
		k.fire(&e)
		k.events++
		if len(k.triggers) > 0 {
			k.fireTriggers()
		}
		if k.exhausted == nil && (k.events+int64(k.idleSteps) >= k.budgetAt ||
			k.budget.MaxQueue > 0 && k.queue.Len()+k.idleSteps > k.budget.MaxQueue) {
			k.checkBudget()
		}
		if cond != nil && cond() {
			k.lapseDue()
			return k.now, true
		}
		if k.stopped {
			k.lapseDue()
			break
		}
	}
	if cond == nil {
		return k.now, false
	}
	return k.now, cond()
}

// Stop aborts the run at the end of the current event (used by monitors that
// detected a terminal condition). The stop is permanent: every later Run or
// RunUntil fires one event and returns.
func (k *Kernel) Stop() { k.stopped = true }

// fire executes one popped event according to its kind. The typed variants
// carry their payload inline; only evFunc and evTimer indirect through a
// closure, and those are cold or caller-supplied respectively.
func (k *Kernel) fire(e *event) {
	switch e.kind {
	case evArrive:
		k.linkArrive(e)
	case evDeliver:
		k.deliver(e)
	case evStep:
		k.step(k.procs[e.to])
	case evTimer:
		if k.procs[e.to].crashed {
			return
		}
		e.fn()
		k.wake(ProcID(e.to))
	default:
		e.fn()
	}
}

// schedule enqueues fn at absolute time t (clamped to be after now). fn
// must change nothing a guard reads except through crashNow, which
// re-judges the recorded steps (see wake).
func (k *Kernel) schedule(t Time, fn func()) {
	e := event{kind: evFunc, fn: fn}
	k.scheduleEvent(t, &e)
}

// scheduleEvent enqueues a copy of a pre-built event at absolute time t
// (clamped to be after now), stamping it with a fresh sequence number.
func (k *Kernel) scheduleEvent(t Time, e *event) {
	if t <= k.now {
		t = k.now + 1
	}
	k.seq++
	e.at = t
	e.seq = k.seq
	k.queue.push(e)
}

// deliver hands the message e carries to its handler at the receiver.
func (k *Kernel) deliver(e *event) {
	k.inFlight--
	pr := k.procs[e.to]
	if pr.crashed {
		k.droppedCrash++
		return
	}
	h := k.handler(pr, e.port)
	k.delivered++
	h(Message{From: ProcID(e.from), To: pr.id, Port: k.ports.Port(int(e.port)), Payload: e.payload})
	k.wake(pr.id)
}

// wake ensures a step is pending for p, so its guards are re-examined. The
// step's gap is drawn and its seq taken here, as for every step. Inside a
// run, if no guard of p holds, the step is recorded at p instead of queued
// (dueAt, dueSeq), and it is re-judged wherever a guard of p can turn true
// (AddAction's contract): at every later wake of p — each of p's handlers,
// timers and actions ends in one — and at every crash (crashNow). The first
// re-judge that finds a guard holding queues the step at its own (at, seq);
// a recorded step that falls due unqueued lapses, as the step that would
// have run nothing. So the queue carries no idle step, and a run is the one
// it would be with every step queued: the same draws, seqs, trace and
// counts (the exactness tests in elide_test.go run both). Wiring-time wakes,
// outside a run, queue their step as before.
func (k *Kernel) wake(p ProcID) {
	pr := k.procs[p]
	if pr.crashed {
		return
	}
	if pr.stepPending {
		if pr.dueSeq == 0 || !k.recording {
			return
		}
		if !k.due(pr) {
			if pr.actions.Enabled() {
				k.queueDue(pr)
			}
			return
		}
		k.lapse(pr)
	}
	pr.stepPending = true
	gap := Time(1)
	if k.stepMax > 1 {
		gap += Time(k.stepGap.draw(k.rng))
	}
	if k.recording && !pr.actions.Enabled() {
		k.seq++
		pr.dueAt, pr.dueSeq = k.now+gap, k.seq
		k.idleSteps++
		return
	}
	e := event{kind: evStep, to: int32(pr.id)}
	k.scheduleEvent(k.now+gap, &e)
}

// due reports whether pr's recorded step has fallen due: whether it comes
// before the event firing in the queue's (at, seq) order, so that it would
// have fired already.
func (k *Kernel) due(pr *proc) bool {
	return pr.dueAt < k.now || pr.dueAt == k.now && pr.dueSeq < k.curSeq
}

// lapse retires pr's recorded step, counting it as the event it would have
// been: a step that found no guard holding.
func (k *Kernel) lapse(pr *proc) {
	pr.dueSeq, pr.stepPending = 0, false
	k.idleSteps--
	k.events++
	k.lapsed++
}

// queueDue files pr's recorded step in the queue at its own (at, seq).
func (k *Kernel) queueDue(pr *proc) {
	e := event{at: pr.dueAt, seq: pr.dueSeq, kind: evStep, to: int32(pr.id)}
	k.queue.insert(&e)
	pr.dueSeq = 0
	k.idleSteps--
}

// sweep visits every recorded step: one that has fallen due lapses, one
// that queue picks is queued, and the rest stay recorded.
func (k *Kernel) sweep(queue func(*proc) bool) {
	if k.idleSteps == 0 {
		return
	}
	for _, pr := range k.procs {
		switch {
		case pr.dueSeq == 0:
		case k.due(pr):
			k.lapse(pr)
		case queue(pr):
			k.queueDue(pr)
		}
	}
}

// rejudge queues every recorded step whose process now has a guard
// holding: after a crash, whose ground truth guards may read, and as a run
// starts, after whatever its caller did since the last one.
func (k *Kernel) rejudge() {
	k.sweep(func(pr *proc) bool { return !pr.crashed && pr.actions.Enabled() })
}

// lapseDue retires the recorded steps a stopping run has passed.
func (k *Kernel) lapseDue() { k.sweep(func(*proc) bool { return false }) }

// unelide queues every recorded step and stops recording for the rest of
// the run, so that from here on the queue and the event count are exact
// (see checkBudget).
func (k *Kernel) unelide() {
	k.sweep(func(*proc) bool { return true })
	k.recording = false
}

// settle ends a run whose queue holds nothing at or before horizon. The
// recorded steps at or before horizon lapse where they fall due, so on a
// quiescent run the last of them sets the end time, as its firing would
// have. It reports whether anything is left past the horizon, queued or
// recorded; then the clock parks on the horizon.
func (k *Kernel) settle(horizon Time) bool {
	later := k.queue.Len() > 0
	if k.idleSteps > 0 {
		for _, pr := range k.procs {
			switch {
			case pr.dueSeq == 0:
			case pr.dueAt > horizon:
				later = true
			default:
				k.now = max(k.now, pr.dueAt)
				k.lapse(pr)
			}
		}
	}
	if later {
		k.now = horizon
	}
	return later
}

// step executes at most one enabled action of pr, chosen by the rotation
// (weak fairness), then reschedules if anything ran. With no action enabled
// the process goes idle until a delivery, timer, or local change wakes it.
func (k *Kernel) step(pr *proc) {
	pr.stepPending = false
	if pr.crashed || !pr.actions.Step() {
		return
	}
	k.steps++
	k.wake(pr.id)
}

func portPrefix(port string) string {
	for i := 0; i < len(port); i++ {
		if port[i] == '/' {
			return port[:i]
		}
	}
	return port
}
