// Command dineserve exposes wait-free dining under eventual weak exclusion
// as a networked lock/session service. All of the actual machinery lives in
// internal/dinesvc — the embeddable service kernel hosting N diners over
// -tables independent dining tables, arbitrated by the forks algorithm over
// a heartbeat ◇P; clients acquire and release eating sessions over TCP
// (newline-delimited JSON, see internal/lockproto — a plain `nc` session
// works). Alongside each served table, the paper's reduction
// (internal/core) runs the full ◇P extraction over the same process set,
// and clients can stream its suspect output live with the watch op.
//
// This file is only the shell: flag parsing, HTTP side-listeners (pprof,
// metrics), signal handling, and exit-status policy. On SIGINT the service
// drains: new acquires are refused, granted sessions run to completion
// (bounded by -drain), and every table's trace is then validated by the ◇WX
// checker. The exit status reports the verdict — the AND of the per-table
// verdicts — which is what every scenario of `make e2e` (internal/e2e)
// asserts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: registers the profiling handlers
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dinesvc"
	"repro/internal/metrics"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7117", "listen address (use :0 for an ephemeral port)")
		n         = flag.Int("n", 5, "number of diners")
		tables    = flag.Int("tables", 1, "independent dining tables to shard the diners over")
		topology  = flag.String("topology", "ring", "per-table conflict graph: ring or clique")
		tick      = flag.Duration("tick", time.Millisecond, "wall-clock duration of one protocol tick")
		hbTimeout = flag.Int("hb-timeout", 600, "initial heartbeat suspicion timeout, in ticks")
		extract   = flag.Bool("extract", true, "run the ◇P extraction alongside each served table (feeds the watch stream)")
		drain     = flag.Duration("drain", 10*time.Second, "how long SIGINT waits for in-flight sessions")
		lease     = flag.Duration("lease", 30*time.Second, "how long a disconnected client's session survives before forced release (0: forever)")
		maxInFl   = flag.Int64("max-inflight", 4096, "max concurrent sessions before new acquires are shed with \"overloaded\" (0: unlimited)")

		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty: off)")
		metricsAddr = flag.String("metrics", "", "serve /metrics (Prometheus text) and /statusz (JSON) on this address (e.g. 127.0.0.1:9117; empty: off)")

		dataDir  = flag.String("data-dir", "", "WAL+snapshot directory; empty disables persistence")
		fsync    = flag.String("fsync", "always", "WAL durability: always (fsync per commit), interval (every 50ms), or never")
		snapRecs = flag.Int64("snap-records", 4096, "cut a snapshot after this many WAL records, per table")

		chaosCrash   = flag.Int("chaos-crash", -1, "diner to crash and restart once (chaos injection; -1: none)")
		chaosCrashAt = flag.Duration("chaos-crash-at", 2*time.Second, "when after startup the chaos crash fires")
		chaosRestart = flag.Duration("chaos-restart-after", 500*time.Millisecond, "crash-to-restart gap (served tables run over reliable in-process links: nothing is held in flight, so any positive gap works)")
	)
	flag.Parse()

	if *chaosCrash >= 0 && *extract {
		// The extraction boxes simulate every diner inside each real process;
		// they have no restart story, so a chaos run would freeze the box of
		// the crashed process and poison the suspect stream.
		fmt.Println("dineserve: chaos crash enabled, disabling -extract")
		*extract = false
	}

	svc, err := dinesvc.New(dinesvc.Config{
		N:           *n,
		Tables:      *tables,
		Topology:    *topology,
		Tick:        *tick,
		HBTimeout:   *hbTimeout,
		Extract:     *extract,
		Lease:       *lease,
		MaxInflight: *maxInFl,

		DataDir:     *dataDir,
		Fsync:       *fsync,
		SnapRecords: *snapRecs,

		Logf: func(format string, args ...any) {
			fmt.Printf("dineserve: "+format+"\n", args...)
		},
		Fatalf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dineserve: "+format+"\n", args...)
			os.Exit(1)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dineserve: %v\n", err)
		if errors.Is(err, dinesvc.ErrUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}

	if *pprofAddr != "" {
		// DefaultServeMux carries the pprof handlers via the blank import.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "dineserve: pprof: %v\n", err)
			}
		}()
		fmt.Printf("dineserve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dineserve: metrics: %v\n", err)
			os.Exit(1)
		}
		go func() {
			if err := http.Serve(mln, metricsHandler(svc.Registry())); err != nil {
				// Closed at process exit; nothing to clean up.
				_ = err
			}
		}()
		fmt.Printf("dineserve: metrics on http://%s/metrics\n", mln.Addr())
	}

	if _, err := svc.Listen(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "dineserve: %v\n", err)
		os.Exit(1)
	}
	if *chaosCrash >= 0 && *chaosCrash < *n {
		svc.ChaosCrash(*chaosCrash, *chaosCrashAt, *chaosRestart)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("dineserve: signal received, draining")
	svc.Drain(*drain)
	svc.Summary()
	if err := svc.Verdict(); err != nil {
		fmt.Fprintf(os.Stderr, "dineserve: exclusion check FAILED: %v\n", err)
		os.Exit(1)
	}
}

// metricsHandler serves a registry over HTTP:
//
//	/metrics — Prometheus text exposition (curl-able, collector-compatible)
//	/statusz — JSON Snapshot (programmatic consumers, e.g. dineload's
//	           mid-run scrape)
//
// Scrapes are read-only and safe concurrently with writers; -metrics gives
// the handler a dedicated listener to keep observability traffic off the
// service port.
func metricsHandler(r *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	return mux
}
