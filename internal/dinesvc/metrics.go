package dinesvc

import (
	"repro/internal/live"
	"repro/internal/metrics"
)

// The instrument inventory keeps the dineserve_ name prefix — dinesvc is the
// embeddable kernel of that service, and every dashboard, the end-to-end
// harness (internal/e2e) and the benchmark key on these exact series names.
// Instruments are always live; whether an HTTP listener exposes them is the
// embedder's business.
//
// The inventory splits along the sharding boundary:
//
//   - svcMetrics is per process: the outbound wire is per connection and
//     connections are shared by every table, so the coalescing counters
//     cannot be attributed to one table.
//   - tableMetrics is per table, built through a naming function. A
//     single-table service names its instruments bare (byte-identical to the
//     pre-sharding inventory); a sharded one names them through
//     metrics.WithLabels(name, "table", i), so N tables expose N labeled
//     series under one metric family.

// svcMetrics is the service-wide instrument set.
type svcMetrics struct {
	reg *metrics.Registry

	// Outbound wire (per-connection FlushWriter coalescing).
	wireWrites *metrics.Counter
	wireEvents *metrics.Counter
	wireBytes  *metrics.Counter
}

func newSvcMetrics(reg *metrics.Registry) *svcMetrics {
	m := &svcMetrics{reg: reg}
	m.wireWrites = reg.Counter("dineserve_wire_writes_total",
		"socket writes across all connections")
	m.wireEvents = reg.Counter("dineserve_wire_events_total",
		"events those writes carried (coalescing ratio = events/writes)")
	m.wireBytes = reg.Counter("dineserve_wire_bytes_total",
		"bytes written to client sockets")
	return m
}

// observeService registers the scrape-time gauges over shared service state.
func (m *svcMetrics) observeService(s *Service) {
	m.reg.GaugeFunc("dineserve_connections",
		"open client connections",
		func() int64 {
			s.connMu.Lock()
			n := len(s.conns)
			s.connMu.Unlock()
			return int64(n)
		})
}

// tableMetrics is one table's instrument set — every counter, gauge, and
// histogram a dining table maintains, registered once at boot and updated
// through preallocated handles so the request hot path stays at 0 extra
// allocs/op (pinned by TestServeGrantMetricsAllocs).
//
// Naming scheme: dineserve_<subsystem>_<what>[_<unit>][_total], rendered
// through the table's naming function. Counters end in _total; histograms
// carry their exposition unit (_seconds scaled from the raw microsecond
// observations, _records unscaled); gauges are bare nouns.
type tableMetrics struct {
	reg  *metrics.Registry
	name func(string) string

	// Session lifecycle (the dining-lock service proper).
	granted   *metrics.Counter
	regranted *metrics.Counter
	released  *metrics.Counter
	expired   *metrics.Counter
	shed      *metrics.Counter
	held      *metrics.Gauge // sessions currently in the critical section
	grantLat  *metrics.Hist  // acquire received → grant sent, server-side

	// ◇WX: exclusion violations the table's monitor decided.
	violations *metrics.Counter

	// ◇P extraction watch stream (suspect churn: transitions per direction).
	suspects     *metrics.Counter
	trusts       *metrics.Counter
	watchDropped *metrics.Counter

	// Durability (WAL + the committer's ack rounds).
	walRecords    *metrics.Counter
	walFsyncs     *metrics.Counter
	walBarriers   *metrics.Counter
	walSyncRounds *metrics.Counter
	walFsyncLat   *metrics.Hist
	walBatch      *metrics.Hist

	// Checkpoints (the janitor's snapshot cuts).
	walSnapshots     *metrics.Counter
	walSnapshotLat   *metrics.Hist
	walSnapshotBytes *metrics.Gauge
}

func newTableMetrics(reg *metrics.Registry, name func(string) string) *tableMetrics {
	m := &tableMetrics{reg: reg, name: name}

	m.granted = reg.Counter(name("dineserve_sessions_granted_total"),
		"sessions granted the critical section")
	m.regranted = reg.Counter(name("dineserve_sessions_regranted_total"),
		"recovered grants re-entered after a restart")
	m.released = reg.Counter(name("dineserve_sessions_released_total"),
		"granted sessions that exited the critical section")
	m.expired = reg.Counter(name("dineserve_sessions_expired_total"),
		"sessions reclaimed by the lease janitor")
	m.shed = reg.Counter(name("dineserve_sessions_shed_total"),
		"acquires refused with overloaded")
	m.held = reg.Gauge(name("dineserve_sessions_held"),
		"sessions currently holding the critical section")
	m.grantLat = reg.Histogram(name("dineserve_grant_latency_seconds"),
		"server-side acquire-to-grant latency", 1e-6)
	m.violations = reg.Counter(name("dineserve_exclusion_violations_total"),
		"overlaps of live neighbours' eating sessions (◇WX: finitely many, then none)")

	m.suspects = reg.Counter(name("dineserve_suspect_transitions_total"),
		"trust->suspect transitions on the extraction watch stream")
	m.trusts = reg.Counter(name("dineserve_trust_transitions_total"),
		"suspect->trust transitions on the extraction watch stream")
	m.watchDropped = reg.Counter(name("dineserve_watch_dropped_total"),
		"watch events not delivered to slow subscribers")

	m.walRecords = reg.Counter(name("dineserve_wal_records_total"),
		"journal records appended to the WAL")
	m.walFsyncs = reg.Counter(name("dineserve_wal_fsyncs_total"),
		"fsyncs the WAL store issued")
	m.walBarriers = reg.Counter(name("dineserve_wal_barriers_total"),
		"acks held until durable (grant and release acknowledgements)")
	m.walSyncRounds = reg.Counter(name("dineserve_wal_sync_rounds_total"),
		"committer rounds, one WAL sync each (barriers/rounds = acks per sync)")
	m.walFsyncLat = reg.Histogram(name("dineserve_wal_fsync_seconds"),
		"WAL fsync latency", 1e-6)
	m.walBatch = reg.Histogram(name("dineserve_wal_batch_records"),
		"records made durable per fsync (group-commit batch size)", 1)

	m.walSnapshots = reg.Counter(name("dineserve_wal_snapshots_total"),
		"snapshots cut and committed")
	m.walSnapshotLat = reg.Histogram(name("dineserve_wal_snapshot_seconds"),
		"snapshot latency, log rotation to snapshot committed", 1e-6)
	m.walSnapshotBytes = reg.Gauge(name("dineserve_wal_snapshot_bytes"),
		"payload size of the last snapshot")

	return m
}

// observeTable registers the gauges that sample one table's state at scrape
// time (nothing to maintain on the hot path).
func (m *tableMetrics) observeTable(t *Table) {
	m.reg.GaugeFunc(m.name("dineserve_sessions_inflight"),
		"sessions accepted but not yet finished",
		func() int64 { return t.inFlight.Load() })
	m.reg.GaugeFunc(m.name("dineserve_sessions_done_spans"),
		"entries + spans remembering finished sessions (sequential ids: 2 per client and diner; any other id: 1 more)",
		t.sessions.DoneSize)
}

// runtimeSeries maps the counters the table's runtime keeps
// (live.Runtime.Counter names) to the series that expose them. They stay
// gauges, sampled from the runtime's own handles at scrape time: the
// benchmark reads them from Snapshot.Gauges.
var runtimeSeries = []struct{ counter, series, help string }{
	{"steps", "dineserve_rt_steps", "protocol action steps executed"},
	{"yields", "dineserve_rt_yields_total", "step budgets exhausted: a process stayed busy for a whole budget without blocking (climbing steadily = an action cycle wired unpaced)"},
	{"msg.sent", "dineserve_rt_msgs_sent", "protocol messages sent"},
	{"msg.delivered", "dineserve_rt_msgs_delivered", "protocol messages delivered"},
	{"msg.dropped", "dineserve_rt_msgs_dropped", "protocol messages dropped (crashed destination)"},
}

// observeRuntime exposes the table runtime's counters.
func (m *tableMetrics) observeRuntime(r *live.Runtime) {
	for _, s := range runtimeSeries {
		m.reg.GaugeFunc(m.name(s.series), s.help, r.CounterHandle(s.counter).Value)
	}
}
