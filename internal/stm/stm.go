// Package stm models the contention-management scenario of Sections 2–3 of
// the paper: an obstruction-free software transactional memory whose
// liveness is boosted to wait-freedom by a wait-free ◇WX contention manager
// (a dining service on the clients' conflict graph).
//
// The STM itself is the usual versioned-object model: a transaction
// snapshots the versions of the objects it touches, computes for a while,
// and commits if and only if no touched object changed underneath it —
// committing bumps every written object's version. A transaction that runs
// in isolation long enough therefore always succeeds (obstruction freedom),
// but under contention a client can abort forever while its rivals commit
// (no wait-freedom). The model collapses the shared store into one global
// structure because STM is a shared-memory abstraction; what this package
// exercises is the contention manager built on dining, not a cache
// coherence protocol (see DESIGN.md's substitution table).
//
// A managed client asks its contention manager for permission (Hungry),
// runs its transaction while eating, and exits on commit — or exits and
// retries on abort, so eating sessions stay finite as the dining contract
// requires. Scheduling mistakes of the manager (two conflicting clients
// permitted at once) only cause aborts, which are retried: exactly the
// paper's point that ◇WX mistakes are recoverable. Once the manager stops
// making mistakes, every permitted transaction runs in isolation and
// commits: every client with a pending transaction eventually commits, so
// the STM is now wait-free.
package stm

import (
	"fmt"
	"sort"

	"repro/internal/dining"
	"repro/internal/sim"
)

// Store is the versioned shared object store.
type Store struct {
	versions map[string]int64
	commits  int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{versions: make(map[string]int64)}
}

// Version returns the current version of an object (0 if never written).
func (s *Store) Version(obj string) int64 { return s.versions[obj] }

// Commits returns the total number of committed transactions.
func (s *Store) Commits() int64 { return s.commits }

// Tx is one transaction attempt.
type Tx struct {
	objs     []string
	snapshot map[string]int64
	store    *Store
}

// Begin starts a transaction over the given objects.
func (s *Store) Begin(objs []string) *Tx {
	tx := &Tx{objs: objs, snapshot: make(map[string]int64, len(objs)), store: s}
	for _, o := range objs {
		tx.snapshot[o] = s.versions[o]
	}
	return tx
}

// TryCommit validates the snapshot and, on success, bumps every object's
// version. It reports whether the transaction committed.
func (tx *Tx) TryCommit() bool {
	for _, o := range tx.objs {
		if tx.store.versions[o] != tx.snapshot[o] {
			return false
		}
	}
	for _, o := range tx.objs {
		tx.store.versions[o]++
	}
	tx.store.commits++
	return true
}

// ClientStats is the outcome of one client's workload.
type ClientStats struct {
	P        sim.ProcID
	Commits  int
	Aborts   int
	LastDone sim.Time // time of the last commit (Never if none)
}

// Client runs transactions of a fixed duration over a fixed object set.
type Client struct {
	k       *sim.Kernel
	store   *Store
	p       sim.ProcID
	objs    []string
	length  sim.Time
	target  int
	stats   ClientStats
	managed dining.Diner // nil for unmanaged clients
}

// Config describes one client's workload.
type Config struct {
	Objs   []string
	Length sim.Time // transaction duration in ticks
	Target int      // stop after this many commits (0 = run forever)
}

// NewClient attaches an unmanaged (obstruction-free only) client at p: it
// begins a new transaction as soon as the previous attempt finishes,
// retrying aborts immediately.
func NewClient(k *sim.Kernel, store *Store, p sim.ProcID, cfg Config) *Client {
	c := newClient(k, store, p, cfg)
	c.runUnmanaged()
	return c
}

// NewManagedClient attaches a client at p that asks diner d for permission
// before each attempt, exiting its critical section after every attempt
// (commit or abort) so that eating stays finite.
func NewManagedClient(k *sim.Kernel, store *Store, p sim.ProcID, d dining.Diner, cfg Config) *Client {
	c := newClient(k, store, p, cfg)
	c.managed = d
	d.OnChange(func(s dining.State) {
		if s == dining.Eating {
			c.attempt(func(committed bool) {
				d.Exit()
			})
		}
		if s == dining.Thinking && !c.done() {
			k.After(p, 1, func() {
				if d.State() == dining.Thinking && !c.done() {
					d.Hungry()
				}
			})
		}
	})
	k.After(p, 1+sim.Time(p), func() {
		if d.State() == dining.Thinking {
			d.Hungry()
		}
	})
	return c
}

func newClient(k *sim.Kernel, store *Store, p sim.ProcID, cfg Config) *Client {
	if cfg.Length <= 0 {
		cfg.Length = 10
	}
	return &Client{
		k: k, store: store, p: p,
		objs: cfg.Objs, length: cfg.Length, target: cfg.Target,
		stats: ClientStats{P: p, LastDone: sim.Never},
	}
}

func (c *Client) done() bool { return c.target > 0 && c.stats.Commits >= c.target }

func (c *Client) runUnmanaged() {
	c.k.After(c.p, 1+sim.Time(c.p), func() { c.loopUnmanaged() })
}

func (c *Client) loopUnmanaged() {
	if c.done() {
		return
	}
	c.attempt(func(bool) { c.loopUnmanaged() })
}

// attempt runs one transaction: snapshot now, validate after length ticks.
func (c *Client) attempt(then func(committed bool)) {
	tx := c.store.Begin(c.objs)
	c.k.After(c.p, c.length, func() {
		ok := tx.TryCommit()
		if ok {
			c.stats.Commits++
			c.stats.LastDone = c.k.Now()
			c.k.Emit(sim.Record{P: c.p, Kind: "mark", Peer: -1, Inst: "stm", Note: "commit"})
		} else {
			c.stats.Aborts++
			c.k.Emit(sim.Record{P: c.p, Kind: "mark", Peer: -1, Inst: "stm", Note: "abort"})
		}
		then(ok)
	})
}

// Stats returns the client's outcome so far.
func (c *Client) Stats() ClientStats { return c.stats }

// Summary renders a deterministic one-line report for a set of clients.
func Summary(clients []*Client) string {
	cs := make([]ClientStats, len(clients))
	for i, c := range clients {
		cs[i] = c.Stats()
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].P < cs[j].P })
	s := ""
	for i, st := range cs {
		if i > 0 {
			s += "  "
		}
		s += fmt.Sprintf("p%d: %dc/%da", st.P, st.Commits, st.Aborts)
	}
	return s
}
