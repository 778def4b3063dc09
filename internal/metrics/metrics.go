// Package metrics is the stack's dependency-free observability substrate: a
// registry of named instruments — sharded atomic counters, gauges, and a
// fixed-footprint log-scale histogram — with Prometheus-text and JSON
// exposition. The paper's guarantees are all *eventual* (wait-free dining,
// ◇P extraction quality under ◇WX), so in a live deployment they are only
// trustworthy if convergence is watchable: suspect churn settling, grant
// latency stabilizing, mistake eras closing. This package makes that cheap
// enough to leave on.
//
// Design rules, in priority order:
//
//  1. The hot path allocates nothing and takes no locks. Instruments are
//     handles obtained once at registration (the only map lookup); Add and
//     Observe are atomic operations on preallocated memory. The dineserve
//     request pipeline runs with every instrument live at 0 extra allocs/op
//     (pinned by TestServeGrantMetricsAllocs against BENCH_serve.json).
//  2. Writers never contend with each other more than the hardware requires.
//     Counters are sharded over cache-line-padded cells indexed by a hash of
//     the caller's stack address, so goroutines on different stacks update
//     different cache lines; Value folds the shards at read time, which is
//     the rare operation.
//  3. Scrapes are read-only and safely concurrent with writers: exposition
//     walks the instruments with atomic loads, so a scrape observes each
//     instrument near-atomically but the set of instruments exactly.
package metrics

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// counterShards is the number of padded cells per counter: a power of two
// small enough to keep a counter at half a KiB and large enough that a
// handful of hot writer goroutines rarely collide.
const counterShards = 8

// cell is one cache-line-padded shard. 64 bytes keeps neighbouring shards'
// values off one line on every current x86/arm server part.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// shardIndex hashes the caller's stack address to a shard. Distinct
// goroutines run on distinct stacks, so concurrent writers spread over the
// cells without any runtime support (no CPU id, no goroutine id); the
// Fibonacci multiplier mixes the low page bits into the top three.
func shardIndex() int {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	return int((uint64(p) * 0x9E3779B97F4A7C15) >> 61)
}

// Counter is a monotonically increasing sum, sharded for write scalability.
// The zero value is usable; a nil *Counter ignores writes and reads 0, so
// optional instrumentation hooks need no guards at the call site.
type Counter struct {
	shards [counterShards]cell
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (lock-free, alloc-free).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.shards[shardIndex()].v.Add(n)
}

// Value folds the shards. Concurrent Adds may or may not be included —
// exactly the torn-read contract every scrape accepts.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is a settable instantaneous value. Set/Add are single atomics —
// gauges are written far less often than counters, so they are not sharded
// (sharding would break Set). Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Kind classifies an instrument for exposition.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHist
)

// entry is one registered instrument.
type entry struct {
	name   string // full series name, labels included: base{k="v",...}
	base   string // metric family name (name up to the label braces)
	labels string // rendered label pairs without braces; "" if unlabeled
	help   string
	kind   Kind
	scale  float64 // exposition multiplier (histograms: raw value → unit)

	counter *Counter
	gauge   *Gauge
	gaugeFn func() int64
	hist    *Hist
}

// WithLabels renders a series name with label pairs appended in Prometheus
// text form: WithLabels("x_total", "table", "3") → `x_total{table="3"}`.
// Registering several series that share a base name but differ in labels
// gives each its own instrument handle while exposition groups them under
// one HELP/TYPE header — the registration-time label support the sharded
// service uses for its per-table instrument sets. kv must alternate
// key, value; label values are escaped per the exposition format.
func WithLabels(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("metrics: WithLabels needs alternating key, value pairs")
	}
	b := []byte(name)
	b = append(b, '{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[i]...)
		b = append(b, '=', '"')
		for _, c := range []byte(kv[i+1]) {
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			default:
				b = append(b, c)
			}
		}
		b = append(b, '"')
	}
	return string(append(b, '}'))
}

// splitLabels breaks a full series name into its base and rendered labels.
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && len(name) > i+1 && name[len(name)-1] == '}' {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// Registry holds named instruments. Registration takes a lock and a map
// lookup; the returned handles never do. Instruments registered twice under
// one name return the same handle (a registry is process-wide state, and
// the second caller is almost always the same subsystem booting twice in a
// test), but re-registering a name as a different kind panics — that is a
// wiring bug, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// register finds or installs the entry for name and runs init on it under
// the registry lock (fresh: the entry is new), so neither a concurrent
// registration of the same name nor a scrape ever sees an entry without its
// instrument.
func (r *Registry) register(name, help string, kind Kind, init func(e *entry, fresh bool)) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byName[name]
	if ok && e.kind != kind {
		panic("metrics: " + name + " re-registered as a different kind")
	}
	if !ok {
		e = &entry{name: name, help: help, kind: kind, scale: 1}
		e.base, e.labels = splitLabels(name)
		r.byName[name] = e
		r.entries = append(r.entries, e)
	}
	init(e, !ok)
	return e
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, func(e *entry, fresh bool) {
		if fresh {
			e.counter = &Counter{}
		}
	}).counter
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, func(e *entry, fresh bool) {
		if fresh {
			e.gauge = &Gauge{}
		}
	}).gauge
}

// GaugeFunc registers a gauge whose value is sampled by fn at scrape time —
// for values some other subsystem already maintains (an inflight count, a
// runtime's counter handle) that would be wasteful to mirror on the hot
// path. Registering the name again replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, help, KindGauge, func(e *entry, _ bool) { e.gaugeFn = fn })
}

// Histogram registers (or finds) a log-scale histogram. scale converts raw
// observed values into the exposition unit (e.g. 1e-6 for a histogram
// observing microseconds but named _seconds); scale <= 0 means 1.
func (r *Registry) Histogram(name, help string, scale float64) *Hist {
	return r.register(name, help, KindHist, func(e *entry, fresh bool) {
		if fresh {
			if scale > 0 {
				e.scale = scale
			}
			e.hist = NewHist()
		}
	}).hist
}

// sorted snapshots the entry list ordered by name, so exposition output is
// deterministic regardless of registration order.
func (r *Registry) sorted() []*entry {
	r.mu.Lock()
	es := make([]*entry, len(r.entries))
	copy(es, r.entries)
	r.mu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
	return es
}

// gaugeValue reads a gauge entry: the sampling fn wins if set.
func (e *entry) gaugeValue() int64 {
	if e.gaugeFn != nil {
		return e.gaugeFn()
	}
	return e.gauge.Value()
}
