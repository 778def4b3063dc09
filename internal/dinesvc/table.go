package dinesvc

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dining/forks"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/lockproto"
	"repro/internal/rt"
	"repro/internal/wal"
)

const (
	tableInst = "dine" // served dining table's trace instance
	extInst   = "ex"   // extraction oracle's trace instance
	queueCap  = 1024   // pending acquires per diner before "busy"
)

// Table is one independent dining table: its own live runtime hosting the
// diners assigned to it, its own conflict graph and forks arbitration over
// a heartbeat ◇P, its own session registry, suspect feed, lease janitor,
// and (when the service is durable) its own WAL recovered in isolation.
// Tables share nothing but the listener and the accept loop; a stalled
// fsync or a grant storm on one table never blocks another.
//
// Diner ids are global on the wire and in the registry (lockproto.Key);
// each table maps them to local proc ids 0..k-1 on its runtime via the
// pinned lockproto.TableOf assignment.
type Table struct {
	idx     int
	svc     *Service
	globals []int // local proc id → global diner id

	g    *graph.Graph
	r    *live.Runtime // nil for a table no diner hashes to
	ex   *checker.ExclusionMonitor
	feed *suspectFeed
	hb   *detector.Heartbeat
	tbl  *forks.Table

	seats    []*seat // indexed by local proc id
	sessions *lockproto.Sessions
	dur      *durable // nil: no persistence
	// clockBase offsets the runtime's tick clock so table time resumes
	// from the recovered watermark instead of restarting at zero — the
	// lease arithmetic (lastSeen vs now) only works if time never rewinds.
	clockBase int64
	recovered *lockproto.Recovered

	inFlight atomic.Int64 // sessions accepted but not yet finished

	m *tableMetrics

	// end is the runtime clock at drain, recorded before Stop so the ◇WX
	// verdict judges exactly the served run.
	end rt.Time
}

// Diners lists the global diner ids this table hosts, in local proc order.
func (t *Table) Diners() []int { return append([]int(nil), t.globals...) }

// now is the table clock: runtime ticks offset by the recovered watermark.
func (t *Table) now() int64 {
	if t.r == nil {
		return t.clockBase
	}
	return t.clockBase + int64(t.r.Now())
}

// seatOf returns the seat serving a global diner id, nil if this table does
// not host it (a ledger written under another diner count can name one).
func (t *Table) seatOf(diner int) *seat {
	if diner < 0 || diner >= len(t.svc.tableOf) || t.svc.tableOf[diner] != t.idx {
		return nil
	}
	return t.seats[t.svc.localOf[diner]]
}

// topoGraph builds one table's conflict graph over its local proc ids. The
// named topologies need minimum sizes (a ring needs 3 nodes, a clique 2),
// so small shards degrade to the densest graph that exists at their size:
// two diners conflict pairwise under either topology, and a lone diner has
// no conflicts at all (its fork set is empty, so it eats freely — exactly
// the dining semantics of an isolated vertex).
func topoGraph(topology string, k int) (*graph.Graph, error) {
	if k == 1 {
		g := graph.New()
		g.Add(0)
		return g, nil
	}
	switch topology {
	case "ring":
		if k == 2 {
			return graph.Pair(0, 1), nil
		}
		return graph.Ring(k), nil
	case "clique":
		return graph.Clique(k), nil
	}
	return nil, fmt.Errorf("%w: unknown topology %q", ErrUsage, topology)
}

// newTable boots one shard: WAL recovery first (the ledger decides the
// session registry, fork seeding, and clock base everything else builds
// on), then the runtime stack. The table does not start serving — Listen
// resumes recovered sessions and starts the runtime once every table has
// booted, so a recovery error on table 3 never leaves tables 0–2 accepting
// traffic.
func newTable(svc *Service, idx int, globals []int, pol wal.Policy) (*Table, error) {
	cfg := &svc.cfg
	t := &Table{idx: idx, svc: svc, globals: globals}
	t.m = newTableMetrics(svc.reg, svc.namerFor(idx))

	leaseTicks := svc.leaseTicks
	t.sessions = lockproto.NewSessions(leaseTicks)

	if cfg.DataDir != "" {
		dir := cfg.DataDir
		if cfg.Tables > 1 {
			dir = wal.TableDir(cfg.DataDir, idx)
		}
		store, walRec, err := wal.Open(dir, wal.Options{
			Policy: pol,
			Fsyncs: t.m.walFsyncs, FsyncLat: t.m.walFsyncLat, Batch: t.m.walBatch,
		})
		if err != nil {
			return nil, fmt.Errorf("%swal: %v", t.logPrefix(), err)
		}
		recovered, err := lockproto.Replay(leaseTicks, walRec.Snapshot, walRec.Records)
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("%swal replay: %v", t.logPrefix(), err)
		}
		if len(recovered.Violations) > 0 {
			// The ledger proves the pre-crash run broke safety; refusing to
			// serve from it beats laundering the violation into a new run.
			store.Close()
			return nil, fmt.Errorf("%sledger violation: %s", t.logPrefix(), recovered.Violations[0])
		}
		t.recovered = recovered
		t.sessions = recovered.Sessions
		t.clockBase = recovered.Watermark
		t.sessions.ResetBindings(t.clockBase)
		nGranted := 0
		for _, rs := range recovered.Live {
			if rs.Granted {
				nGranted++
			}
		}
		svc.logf("%srecovered %d live sessions (%d granted), %d fork edges, watermark t=%d, torn tail %d bytes",
			t.logPrefix(), len(recovered.Live), nGranted, len(recovered.Forks), t.clockBase, walRec.TornBytes)
		t.dur = newDurable(store, t.sessions, cfg.SnapRecords, svc.fatalf)
		t.dur.instrument(t.m)
		t.sessions.SetJournal(t.dur.journal)
	}

	k := len(globals)
	if k == 0 {
		// No diner hashes here (possible when tables is close to n). The
		// table still owns its WAL directory — the on-disk layout stays
		// contiguous — but hosts no runtime and never sees traffic.
		return t, nil
	}

	g, err := topoGraph(cfg.Topology, k)
	if err != nil {
		t.dur.close()
		return nil, err
	}
	t.g = g
	t.ex = checker.NewExclusionMonitor(g, tableInst, t.m.violations)
	t.feed = newSuspectFeed(extInst, globals)
	t.feed.suspects, t.feed.trusts = t.m.suspects, t.m.trusts
	t.r = live.New(live.Config{
		N:      k,
		Tick:   cfg.Tick,
		Tracer: multiTracer{t.ex, t.feed},
	})
	t.m.observeRuntime(t.r)
	t.m.observeTable(t)
	t.hb = detector.NewHeartbeat(t.r, "hb", detector.HeartbeatConfig{
		Interval: 20, Check: 10,
		Timeout: rt.Time(cfg.HBTimeout), Bump: rt.Time(cfg.HBTimeout) / 2,
	})
	tableCfg := forks.Config{}
	if t.dur != nil {
		tableCfg.OnFork = t.dur.onFork
		if t.recovered != nil && len(t.recovered.Forks) > 0 {
			forkSeed := t.recovered.Forks
			tableCfg.Seed = func(p, q rt.ProcID) bool {
				e := lockproto.Edge{P: int(p), Q: int(q)}
				lower := true
				if e.P > e.Q {
					e.P, e.Q, lower = e.Q, e.P, false
				}
				lowerHolds, ok := forkSeed[e]
				if !ok {
					return p < q // edge never journaled: default placement
				}
				return lowerHolds == lower
			}
		}
	}
	t.tbl = forks.New(t.r, g, tableInst, t.hb, tableCfg)
	if cfg.Extract {
		procs := make([]rt.ProcID, k)
		for i := range procs {
			procs[i] = rt.ProcID(i)
		}
		// The extraction is a perpetual-motion machine (witness and subject
		// threads dine forever), so it and the fork tables its factory
		// builds are wired through rt.Paced and keep a tempo; the served
		// table above is wired on the runtime itself, so its steps run on the
		// event that enables them and wait behind at most one of these.
		core.NewExtractor(rt.Paced(t.r), procs, forks.Factory(t.hb, forks.Config{}), extInst)
	}

	for _, p := range g.Nodes() {
		t.seats = append(t.seats, newSeat(t, p, t.tbl.Diner(p)))
	}
	return t, nil
}

// logPrefix tags per-table log lines in a sharded service; a single-table
// service keeps the historical untagged lines.
func (t *Table) logPrefix() string {
	if t.svc.cfg.Tables <= 1 {
		return ""
	}
	return fmt.Sprintf("table %d: ", t.idx)
}

// resume re-enqueues the sessions a crash left in flight, in their original
// acquire order. Granted ones carry the regrant flag: they already own the
// critical section in the registry, so their seat re-wins the dining layer's
// grant without a second registry transition (and without a second grant
// journal record). Must run before the listener accepts traffic, so a
// reconnecting client always finds its session already queued.
func (t *Table) resume(live []lockproto.RecoveredSession) {
	for _, rs := range live {
		st := t.seatOf(rs.Key.Diner)
		if st == nil {
			// The ledger was written under a different diner count or table
			// assignment than this boot; shed the foreign session rather
			// than wedge (or mis-route) the boot.
			t.svc.logf("%sdropping recovered session for diner %d: not hosted by this table", t.logPrefix(), rs.Key.Diner)
			t.sessions.Abort(rs.Key)
			continue
		}
		ses := newSession(rs.Key)
		ses.regrant = rs.Granted
		t.inFlight.Add(1)
		if !st.enqueue(ses) {
			// A queue this full can only come from a corrupt ledger; shed
			// the session rather than wedge the boot.
			t.inFlight.Add(-1)
			t.sessions.Abort(rs.Key)
		}
	}
}

// janitor periodically expires detached sessions whose lease ran out. A
// granted one gets its critical section forcibly released — the dining
// service stays wait-free even when clients die silently.
func (t *Table) janitor() {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-t.svc.stop:
			return
		}
		now := t.now()
		t.dur.tick(now)
		for _, e := range t.sessions.Expire(now) {
			t.m.expired.Inc()
			if st := t.seatOf(e.Key.Diner); st != nil && e.WasGranted {
				st.release(e.Key.ID)
			}
		}
	}
}
