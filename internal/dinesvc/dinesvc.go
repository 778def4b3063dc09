// Package dinesvc is the embeddable service kernel behind the dineserve
// binary: wait-free dining under eventual weak exclusion (◇WX), exposed as
// a networked lock/session service. It hosts N diners arbitrated by the
// forks algorithm over a heartbeat ◇P on the live runtime, optionally runs
// the paper's ◇P extraction alongside (feeding the watch stream), journals
// every session transition to a crash-consistent WAL, and validates each
// run's trace with the ◇WX checker at drain.
//
// The kernel is layered in two:
//
//   - Table is one independent dining table: runtime + conflict graph +
//     forks + session registry + suspect feed + janitor + WAL, recovered
//     and audited in isolation.
//   - Service owns the shared edges: the listener and accept loop, the
//     key→table router (the pinned lockproto.TableOf hash of the diner
//     id), drain/verdict fan-in, and the metrics registry every table's
//     labeled instruments land in.
//
// A Config with Tables=1 is byte-compatible with the historical
// single-table server: same wire format, same flat WAL layout, same metric
// names, same log lines. Tables=N splits the diners over N tables, each
// with its own WAL directory (<data-dir>/table-<i>/) and its own ◇WX
// verdict; nothing is shared between tables but the process.
package dinesvc

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/lockproto"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/wal"
)

// ErrUsage wraps configuration errors a caller should treat as bad input
// (the binary exits 2) rather than a runtime failure (exit 1).
var ErrUsage = errors.New("invalid configuration")

// Config describes a service. Zero values take the documented defaults.
type Config struct {
	// N is the total diner count, ids 0..N-1 (min 2).
	N int
	// Tables shards the diners over this many independent dining tables
	// via lockproto.TableOf (default 1; max N).
	Tables int
	// Topology is the per-table conflict graph: "ring" (default) or
	// "clique". Tables too small for the named topology densify: two
	// diners conflict pairwise, one diner has no conflicts.
	Topology string
	// Tick is the wall-clock duration of one protocol tick (default 1ms).
	Tick time.Duration
	// HBTimeout is the initial heartbeat suspicion timeout in ticks
	// (default 600).
	HBTimeout int
	// Extract runs the ◇P extraction alongside each served table, feeding
	// the watch stream.
	Extract bool
	// Lease is how long a disconnected client's session survives before
	// forced release (0: forever).
	Lease time.Duration
	// MaxInflight bounds accepted-but-unfinished sessions service-wide;
	// beyond it new acquires are shed with "overloaded" (0: unlimited).
	MaxInflight int64
	// FlushDelay is ignored (connections write at once; there is no flush
	// window); kept for bench/ until a benchmark PR drops it.
	FlushDelay time.Duration

	// DataDir enables persistence: the WAL+snapshot directory (flat for
	// one table, table-<i>/ subdirectories for more). Empty disables.
	DataDir string
	// Fsync is the WAL durability policy: "always" (default), "interval"
	// (a write arms an fsync 50ms later), or "never".
	Fsync string
	// SnapRecords cuts a snapshot after this many WAL records per table
	// (default 4096) — or after as many as the last snapshot had rows, once
	// that is more, so checkpointing stays O(1) per record.
	SnapRecords int64

	// Registry receives every instrument (default: a fresh registry,
	// reachable via Service.Registry).
	Registry *metrics.Registry
	// Logf receives one-line progress messages without trailing newline
	// (default: discard). The dineserve binary prefixes them "dineserve: ".
	Logf func(format string, args ...any)
	// Fatalf handles unrecoverable mid-run faults, e.g. a WAL write error
	// (default: panic). The binary prints and exits 1. Must not return
	// normally.
	Fatalf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Tables <= 0 {
		c.Tables = 1
	}
	if c.Topology == "" {
		c.Topology = "ring"
	}
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.HBTimeout <= 0 {
		c.HBTimeout = 600
	}
	if c.Fsync == "" {
		c.Fsync = "always"
	}
	if c.SnapRecords <= 0 {
		c.SnapRecords = 4096
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Fatalf == nil {
		c.Fatalf = func(format string, args ...any) {
			panic("dinesvc: " + fmt.Sprintf(format, args...))
		}
	}
	return c
}

// Service is a booted dining-lock service: the shard array plus everything
// the shards share — the listener, the connection set, the diner→table
// router, and the stop/drain machinery.
type Service struct {
	cfg        Config
	reg        *metrics.Registry
	m          *svcMetrics
	leaseTicks int64

	tables  []*Table
	tableOf []int // global diner id → table index
	localOf []int // global diner id → local proc id on its table

	ln       net.Listener
	stop     chan struct{}
	draining atomic.Bool
	// bg tracks every service goroutine that journals to a table's WAL —
	// janitors and connection handlers — so Drain can see them gone before
	// it closes the stores. (The diner processes journal too; they belong to
	// the runtimes, which Drain stops first as well.)
	bg sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]*jconn

	logf   func(format string, args ...any)
	fatalf func(format string, args ...any)
}

// New validates cfg, recovers every table's WAL (refusing to boot from a
// ledger that proves a safety violation), and builds the full runtime stack
// for each table. Nothing serves or steps yet — call Listen.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 2 {
		return nil, fmt.Errorf("%w: need at least 2 diners", ErrUsage)
	}
	if cfg.Tables > cfg.N {
		return nil, fmt.Errorf("%w: %d tables for %d diners", ErrUsage, cfg.Tables, cfg.N)
	}
	if cfg.Topology != "ring" && cfg.Topology != "clique" {
		return nil, fmt.Errorf("%w: unknown topology %q", ErrUsage, cfg.Topology)
	}
	var pol wal.Policy
	if cfg.DataDir != "" {
		var err error
		if pol, err = wal.ParsePolicy(cfg.Fsync); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUsage, err)
		}
		// The on-disk layout is part of the data's meaning: a flat directory
		// was written by one table, table-<i>/ subdirectories by exactly
		// that many. Refusing a mismatched Tables value here beats silently
		// recovering a fraction of the history.
		layout, err := wal.DetectLayout(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		if layout != 0 && layout != cfg.Tables {
			return nil, fmt.Errorf("data dir %s was written with %d table(s), refusing to open it with %d",
				cfg.DataDir, layout, cfg.Tables)
		}
	}

	reg := cfg.Registry
	if reg == nil {
		reg = metrics.New()
	}
	s := &Service{
		cfg:    cfg,
		reg:    reg,
		stop:   make(chan struct{}),
		conns:  make(map[net.Conn]*jconn),
		logf:   cfg.Logf,
		fatalf: cfg.Fatalf,
	}
	if cfg.Lease > 0 {
		s.leaseTicks = int64(cfg.Lease / cfg.Tick)
	}
	s.m = newSvcMetrics(reg)
	s.m.observeService(s)

	// Partition the diners: tableOf/localOf are the routing tables every
	// request consults, globals[i] the reverse map each table translates
	// its trace through.
	s.tableOf = make([]int, cfg.N)
	s.localOf = make([]int, cfg.N)
	globals := make([][]int, cfg.Tables)
	for d := 0; d < cfg.N; d++ {
		ti := lockproto.TableOf(d, cfg.Tables)
		s.tableOf[d] = ti
		s.localOf[d] = len(globals[ti])
		globals[ti] = append(globals[ti], d)
	}

	for i := 0; i < cfg.Tables; i++ {
		t, err := newTable(s, i, globals[i], pol)
		if err != nil {
			for _, prev := range s.tables {
				prev.dur.close()
			}
			return nil, err
		}
		s.tables = append(s.tables, t)
	}
	return s, nil
}

// Registry exposes the instrument registry (for an HTTP exposition handler
// or a test scrape).
func (s *Service) Registry() *metrics.Registry { return s.reg }

// Tables exposes the shard array (read-only use).
func (s *Service) Tables() []*Table { return append([]*Table(nil), s.tables...) }

// tableFor routes a global diner id to its table.
func (s *Service) tableFor(diner int) *Table { return s.tables[s.tableOf[diner]] }

// namerFor renders one table's instrument names: bare for a single-table
// service (the historical inventory), labeled {table="i"} when sharded.
func (s *Service) namerFor(idx int) func(string) string {
	if s.cfg.Tables <= 1 {
		return func(base string) string { return base }
	}
	label := strconv.Itoa(idx)
	return func(base string) string { return metrics.WithLabels(base, "table", label) }
}

// now is the service clock for table-agnostic responses (OpInfo): the first
// hosted table's clock.
func (s *Service) now() int64 {
	for _, t := range s.tables {
		if t.r != nil {
			return t.now()
		}
	}
	return 0
}

// inFlightTotal sums accepted-but-unfinished sessions across tables — the
// shedding bound and the drain loop both want the service-wide number.
func (s *Service) inFlightTotal() int64 {
	var n int64
	for _, t := range s.tables {
		n += t.inFlight.Load()
	}
	return n
}

// Listen resumes every table's recovered sessions, starts the runtimes and
// janitors, opens the listener, and begins accepting. The
// resume happens strictly before the first accept, so a reconnecting client
// always finds its session already queued.
func (s *Service) Listen(addr string) (net.Listener, error) {
	for _, t := range s.tables {
		if t.recovered != nil && len(t.recovered.Live) > 0 {
			t.resume(t.recovered.Live)
		}
		if t.r != nil {
			t.r.Start()
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	for _, t := range s.tables {
		if t.r != nil {
			s.spawn(t.janitor)
		}
	}
	go s.accept()
	if s.cfg.Tables > 1 {
		s.logf("listening on %s (%d diners over %d tables, %s)", ln.Addr(), s.cfg.N, s.cfg.Tables, s.cfg.Topology)
	} else {
		s.logf("listening on %s (%d diners, %s)", ln.Addr(), s.cfg.N, s.cfg.Topology)
	}
	return ln, nil
}

// Addr is the bound listen address (nil before Listen).
func (s *Service) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Service) accept() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed: we are draining
		}
		s.connMu.Lock()
		if s.conns == nil {
			// Drain already swept the connection set; this one slipped
			// through the closing listener.
			s.connMu.Unlock()
			c.Close()
			return
		}
		jc := s.newConn(c)
		s.conns[c] = jc
		s.spawn(func() { s.handleConn(jc) })
		s.connMu.Unlock()
	}
}

// spawn runs fn on a goroutine Drain waits for.
func (s *Service) spawn(fn func()) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		fn()
	}()
}

// ChaosCrash schedules a one-shot crash/restart of one diner's process (on
// whichever table hosts it) after the given delay — dineserve's
// -chaos-crash, which internal/e2e's chaos/proxy scenario runs.
func (s *Service) ChaosCrash(diner int, at, restartAfter time.Duration) error {
	if diner < 0 || diner >= s.cfg.N {
		return fmt.Errorf("%w: no such diner %d", ErrUsage, diner)
	}
	t := s.tableFor(diner)
	p := rt.ProcID(s.localOf[diner])
	go func() {
		select {
		case <-time.After(at):
		case <-s.stop:
			return
		}
		s.logf("chaos — crashing diner %d", diner)
		t.r.Crash(p)
		time.Sleep(restartAfter)
		if t.r.Restart(p, func() {
			t.tbl.Reset(p)
			t.hb.Reset(p)
		}) {
			s.logf("chaos — diner %d restarted", diner)
		}
	}()
	return nil
}

// drainWriteGrace is how long Drain lets a connection's teardown spend
// writing its pending events to a client that may have stopped reading.
const drainWriteGrace = time.Second

// Drain stops accepting work, waits (bounded) for in-flight sessions to
// finish, then tears down connections, janitors, runtimes, and WALs. Each
// table's end-of-run clock is recorded for Verdict.
func (s *Service) Drain(timeout time.Duration) {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	deadline := time.Now().Add(timeout)
	for s.inFlightTotal() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if left := s.inFlightTotal(); left > 0 {
		s.logf("drain timeout with %d sessions in flight", left)
	}
	close(s.stop)
	// End each handler, not its socket: the writer may still hold the
	// connection's last event (an ack is queued before its session leaves
	// inFlight), and the handler's teardown writes that out before closing.
	// The write deadline keeps a client that stopped reading from wedging
	// that teardown, and bg.Wait below with it.
	now := time.Now()
	s.connMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(now)
		c.SetWriteDeadline(now.Add(drainWriteGrace))
	}
	s.conns = nil // accept hands out no more handlers
	s.connMu.Unlock()
	// A janitor mid-pass or a handler detaching its sessions still appends to
	// a WAL; closing the store under it would turn a clean shutdown into a
	// fatal "append on closed store".
	s.bg.Wait()
	for _, t := range s.tables {
		if t.r != nil {
			t.end = t.r.Now()
			t.r.Stop()
		}
		if err := t.dur.close(); err != nil {
			s.logf("%swal close: %v", t.logPrefix(), err)
		}
	}
}

// Summary logs the run's exit-time telemetry. It reads the same registry a
// metrics scrape serves, so the final numbers and a mid-run scrape can
// never disagree.
func (s *Service) Summary() {
	var granted, regranted, released, expired, shed, steps, msgs int64
	var barriers, rounds int64
	for _, t := range s.tables {
		granted += t.m.granted.Value()
		regranted += t.m.regranted.Value()
		released += t.m.released.Value()
		expired += t.m.expired.Value()
		shed += t.m.shed.Value()
		barriers += t.m.walBarriers.Value()
		rounds += t.m.walSyncRounds.Value()
		if t.r != nil {
			steps += t.r.Counter("steps")
			msgs += t.r.Counter("msg.delivered")
		}
	}
	s.logf("granted=%d regranted=%d released=%d expired=%d shed=%d steps=%d msgs=%d",
		granted, regranted, released, expired, shed, steps, msgs)
	if ev := s.m.wireEvents.Value(); ev > 0 {
		s.logf("wire events=%d writes=%d (%.1f events/write)",
			ev, s.m.wireWrites.Value(), float64(ev)/float64(max64(s.m.wireWrites.Value(), 1)))
	}
	if barriers > 0 {
		s.logf("durability barriers=%d fsync-rounds=%d (%.1f barriers/fsync)",
			barriers, rounds, float64(barriers)/float64(max64(rounds, 1)))
	}
}

// Verdict runs the ◇WX checker over every table's trace: the service's
// whole life is the run, and exclusion mistakes must have stopped by its
// midpoint. With no crashes and sane timeouts there are normally no
// violations at all. The first failing table's error is returned; passing
// tables log their verdict lines either way. Call after Drain.
func (s *Service) Verdict() error {
	var firstErr error
	for _, t := range s.tables {
		if t.r == nil {
			continue
		}
		rep, err := checker.EventualWeakExclusion(t.log, t.g, tableInst, t.end/2, t.end)
		if err != nil {
			err = fmt.Errorf("%s%v (%d violations)", t.errPrefix(), err, len(rep.Violations))
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.logf("%sexclusion check OK — %d violations, all before t=%d (run end t=%d)",
			t.logPrefix(), len(rep.Violations), t.end/2, t.end)
	}
	return firstErr
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
