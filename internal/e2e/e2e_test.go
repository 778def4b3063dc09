// Package e2e is the end-to-end harness for the real binaries: TestMain
// builds dineserve, dineload, chaosproxy and walinspect once, and one table
// of scenarios (below) boots, loads, kills, restarts and audits them. There
// is no non-test code: this file is the package. `make e2e` and CI run it; so
// does `go test ./...` (skipped under -short). METRICS_OUT, if set, receives
// smoke/flat's final /statusz snapshot; there is no other input.
//
// Every assertion is a structured fact — an exit status or a /statusz
// series — and every wait is a poll under a deadline. A log line is matched
// only where nothing else carries the fact. The harness replaced four shell
// scripts (serve_smoke.sh, serve_crash.sh, chaos_live.sh and the bench-serve
// script); this is where each of their checks went. A check may leave this
// table only by naming its replacement.
//
//	serve_smoke.sh (flat leg, then -n 16 -tables 4)     smoke/flat, smoke/sharded
//	  both addresses logged within 10 s                 boot: start-up lines, polled under `wait`
//	  mid-load /metrics scrape succeeds                 statusz mid-load (any HTTP or JSON error is fatal)
//	  dineload -scrape runs (unasserted)                smoke/*: -scrape, and its server-side latency report
//	                                                    is logged with a non-zero grant count
//	  7 key series present (grep ^name)                 mid-load: one series per table of granted, held,
//	                                                    grant_latency, rt_steps, bus_delivered,
//	                                                    suspect_transitions; wire_writes > 0
//	  granted_total{table="i"} for i in 0..3            the same count, n == tables
//	  "16 diners over 4 tables" announced               the same count: four labeled series is the announcement
//	  granted_total > 0 after `sleep 2`                 poll until > 0, then until it has moved again
//	  dineload exit 0                                   dineload exit status
//	  granted+regranted == released+held, 3 x 0.5 s     poll until it holds, summed over labels; and held == 0
//	  METRICS_OUT gets /statusz                         smoke/flat writes it
//	  dineserve exit 0 after SIGINT                     dineserve exit status
//	  "exclusion check OK" x 1 / x 4 in the log         dineserve exit status: it is the AND of the per-table
//	                                                    verdicts (cmd/dineserve, Service.Verdict)
//
//	serve_crash.sh
//	  leg 1: chaos -live -live-blackout 1500ms+500ms    internal/chaos TestRunLiveBlackout (the same blackout)
//	  leg 2/4: kill -9 after `sleep 3`, flat / sharded  crash/flat, crash/sharded: SIGKILL when /statusz shows
//	                                                    sessions held and >= killAfter grants
//	  restarted server listens on the old address       boot(srv.addr) on the same data directory
//	  "dineserve: recovered" logged                     log: "recovered N live sessions (G granted)", G >= 1,
//	                                                    and regranted_total > 0 at rest
//	  "table [0-3]: recovered" x 4                      log: one line per table (no counter says "recovered")
//	  dineload exit 0 across the crash                  dineload exit status
//	  "double-grants: 0"                                dineload exit status (it exits 1 on a double grant)
//	  dineserve exit 0, "exclusion check OK" x 1 / x 4  dineserve exit status
//	  walinspect -verify exit 0                         walinspect exit status
//	  walinspect prints "4 tables"                      wal.TableDirs(data) has 4 entries (0 when flat)
//	  leg 3: garbage appended to the newest segment     crash/torn-tail: torn after the kill, before the restart
//	  boots from the torn directory                     boot
//	  "torn tail [1-9]" logged                          log: "torn tail N bytes", N >= 1 (the byte count is
//	                                                    only in the recovery line)
//	  post-tear dineload / dineserve / walinspect       the same three exit statuses; the load runs across
//	                                                    the tear and the restart
//
//	chaos_live.sh
//	  leg 1: chaos -live with the plan JSON             internal/chaos TestRunLiveChaos (10 % drops, a
//	                                                    partition window, a crash/restart: a harsher plan)
//	  leg 2: server and proxy listening                 chaos/proxy: boot, and the proxy's start-up line
//	  dineload exit 0 through the proxy                 dineload exit status
//	  dineserve exit 0, "exclusion check OK"            dineserve exit status
//	  no "drain timeout" in the log                     sessions_inflight == 0 before SIGINT: the drain has
//	                                                    nothing left to time out on (every scenario)
//	  "diner 2 restarted" logged                        log: the same line (no series counts restarts)
//
//	the bench-serve script
//	  lockproto and dinesvc benchmarks exit 0           `make bench-serve`: two go test | bench2json lines
//	  dineserve + a dineload run, exit 0 and verdict    smoke/flat; the benchmark line dineload printed for
//	                                                    it is retired (bench/'s solo and ring_* measure that)
//	  bench2json exit 0                                 `make bench-serve`
package e2e

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// wait bounds every poll below; nothing asserts on how long a wait took.
const wait = 15 * time.Second

// bin is where TestMain put the four binaries.
var bin string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run()) // the scenarios skip themselves
	}
	// Scenarios wait on servers, not on CPUs: the default bound (GOMAXPROCS)
	// would run them two at a time on a 2-CPU host for nothing. A -parallel
	// the caller passed (-parallel 1 to serialise a failure) stands.
	parallelSet := false
	flag.Visit(func(f *flag.Flag) { parallelSet = parallelSet || f.Name == "test.parallel" })
	if !parallelSet {
		flag.Set("test.parallel", "8")
	}
	dir, err := os.MkdirTemp("", "e2e-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = dir
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"repro/cmd/dineserve", "repro/cmd/dineload", "repro/cmd/chaosproxy", "repro/cmd/walinspect")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: go build:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// eventually polls cond until it holds; time.Sleep here is the back-off of a
// poll, the only kind of sleep in the package.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(wait); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// proc is one child process with its combined output captured.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped

	mu  sync.Mutex
	out bytes.Buffer
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// start runs one of the binaries. Whatever happens to the test, the process
// is killed and reaped at cleanup, and its output dumped if the test failed.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(filepath.Join(bin, name), args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = p, p
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		if t.Failed() {
			t.Logf("--- %s %s ---\n%s", name, strings.Join(args, " "), p.output())
		}
	})
	return p
}

// exit waits for the process to end by itself and returns its exit status.
func (p *proc) exit(t *testing.T, within time.Duration) int {
	t.Helper()
	select {
	case <-p.done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(within):
		t.Fatalf("%s still running after %v", p.name, within)
		return -1
	}
}

// logged waits for a line of the process's output to match re and returns
// the submatches: for the facts only a log line carries.
func (p *proc) logged(t *testing.T, re string) []string {
	t.Helper()
	var m []string
	rx := regexp.MustCompile("(?m)" + re)
	eventually(t, p.name+" to log /"+re+"/", func() bool {
		select {
		case <-p.done:
			if m = rx.FindStringSubmatch(p.output()); m == nil {
				t.Fatalf("%s exited without logging /%s/", p.name, re)
			}
		default:
			m = rx.FindStringSubmatch(p.output())
		}
		return m != nil
	})
	return m
}

// server is a booted dineserve and its two addresses.
type server struct {
	*proc
	addr, metrics string
}

// boot starts dineserve and takes its addresses from the start-up lines
// (the listener opens last, after every table has recovered).
func boot(t *testing.T, addr string, flags ...string) *server {
	t.Helper()
	s := &server{proc: start(t, "dineserve", append([]string{"-addr", addr, "-metrics", "127.0.0.1:0"}, flags...)...)}
	s.addr = s.logged(t, `^dineserve: listening on (\S+)`)[1]
	s.metrics = s.logged(t, `^dineserve: metrics on (http://\S+)/metrics$`)[1]
	return s
}

// statusz fetches the server's JSON metrics snapshot.
func (s *server) statusz(t *testing.T) (snap metrics.Snapshot) {
	t.Helper()
	resp, err := (&http.Client{Timeout: wait}).Get(s.metrics + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statusz: %s, %v", resp.Status, err)
	}
	return snap
}

// series sums one metric family over its {table="i"} labels (a flat server
// exposes it bare) and counts the series it found; a histogram contributes
// its observation count.
func series(snap metrics.Snapshot, name string) (sum int64, n int) {
	match := func(k string) bool { return k == name || strings.HasPrefix(k, name+"{") }
	for k, v := range snap.Counters {
		if match(k) {
			sum, n = sum+v, n+1
		}
	}
	for k, v := range snap.Gauges {
		if match(k) {
			sum, n = sum+v, n+1
		}
	}
	for k, v := range snap.Hists {
		if match(k) {
			sum, n = sum+v.Count, n+1
		}
	}
	return sum, n
}

// sum is series without the count; total is sum sampled now.
func sum(snap metrics.Snapshot, name string) int64 {
	s, _ := series(snap, name)
	return s
}

func (s *server) total(t *testing.T, name string) int64 {
	t.Helper()
	return sum(s.statusz(t), name)
}

const (
	granted   = "dineserve_sessions_granted_total"
	regranted = "dineserve_sessions_regranted_total"
	released  = "dineserve_sessions_released_total"
	held      = "dineserve_sessions_held"
	inflight  = "dineserve_sessions_inflight"

	// killAfter grants (≈ 6 WAL records each) at -snap-records 100, the
	// ledger a kill leaves behind is a snapshot plus a tail, not one segment.
	killAfter = 40
)

// The fault plan of chaos/proxy: 3 % of lines dropped throughout, and every
// line for half a second from t = 1 s (plan ticks are the proxy's 1 ms).
const proxyPlan = `{"drop": 0.03, "windows": [{"start": 1000, "end": 1500, "drop": 1}]}`

// durable is what every crash scenario serves with. The lease outlives a
// restart but bounds how long a session orphaned at the end of the load
// (its client timed out past the deadline) keeps the server from rest.
var durable = []string{"-lease", "2s", "-fsync", "always", "-snap-records", "100"}

// crashLoad: the 50 ms hold keeps sessions inside the critical section at
// any instant, so the kill lands on holders and the restart has to regrant;
// the short op timeout turns a lost line into reconnect-and-replay.
var crashLoad = []string{"-clients", "32", "-duration", "4s", "-hold", "50ms", "-watch=false", "-op-timeout", "500ms"}

var sharded = []string{"-n", "16", "-tables", "4"}

var scenarios = []struct {
	name   string
	tables int
	serve  []string // dineserve flags
	load   []string // dineload flags
	scrape bool     // dineload -scrape: its mid-run /statusz fetch and server-side report
	wal    bool     // serve from a data directory, audit it at the end
	proxy  bool     // put chaosproxy between load and server
	kill   bool     // SIGKILL the server under load with sessions held, restart it
	tear   bool     // append garbage to the newest WAL segment before the restart
	logs   []string // what the (last) server must have logged
}{
	{name: "smoke/flat", tables: 1, scrape: true, load: []string{"-clients", "32", "-duration", "2s"}},
	{name: "smoke/sharded", tables: 4, scrape: true, serve: sharded, load: []string{"-clients", "32", "-duration", "2s"}},
	{name: "chaos/proxy", tables: 1, proxy: true,
		serve: []string{"-lease", "2s", "-chaos-crash", "2", "-chaos-crash-at", "1s", "-chaos-restart-after", "500ms"},
		load:  []string{"-clients", "32", "-duration", "3s", "-watch=false", "-op-timeout", "500ms"},
		logs:  []string{`chaos — diner 2 restarted`}},
	{name: "crash/flat", tables: 1, wal: true, kill: true, serve: durable, load: crashLoad,
		logs: []string{`^dineserve: recovered \d+ live sessions \([1-9]\d* granted\)`}},
	{name: "crash/sharded", tables: 4, wal: true, kill: true, serve: append(sharded, durable...), load: crashLoad,
		logs: []string{`table 0: recovered`, `table 1: recovered`, `table 2: recovered`, `table 3: recovered`}},
	{name: "crash/torn-tail", tables: 1, wal: true, kill: true, tear: true, serve: durable, load: crashLoad,
		logs: []string{`torn tail [1-9]\d* bytes`}},
}

// TestScenarios drives the real binaries. One flow, every scenario: boot,
// load, (kill, restart,) rest, SIGINT, audit — the package comment maps each
// assertion of the four shell scripts this replaced to its line here.
func TestScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("boots dineserve and runs multi-second loads; skipped in -short")
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			flags := sc.serve
			data := filepath.Join(t.TempDir(), "data")
			if sc.wal {
				flags = append([]string{"-data-dir", data}, flags...)
			}
			srv := boot(t, "127.0.0.1:0", flags...)
			target := srv.addr
			if sc.proxy {
				plan := filepath.Join(t.TempDir(), "plan.json")
				if err := os.WriteFile(plan, []byte(proxyPlan), 0o644); err != nil {
					t.Fatal(err)
				}
				px := start(t, "chaosproxy", "-listen", "127.0.0.1:0", "-upstream", srv.addr, "-plan", plan, "-seed", "7", "-reset", "0.002")
				target = px.logged(t, `^chaosproxy: listening on (\S+)`)[1]
			}
			loadFlags := append([]string{"-addr", target}, sc.load...)
			if sc.scrape {
				loadFlags = append(loadFlags, "-scrape", srv.metrics)
			}
			load := start(t, "dineload", loadFlags...)

			// Mid-load: the key series exist, one per table where they are
			// per table, and the grant counter is moving.
			eventually(t, "a first grant", func() bool { return srv.total(t, granted) > 0 })
			mid := srv.statusz(t)
			for _, name := range []string{granted, held, "dineserve_grant_latency_seconds", "dineserve_rt_steps", "dineserve_rt_msgs_delivered", "dineserve_suspect_transitions_total"} {
				if _, n := series(mid, name); n != sc.tables {
					t.Errorf("mid-load /statusz has %d series of %s, want %d", n, name, sc.tables)
				}
			}
			if sum(mid, "dineserve_wire_writes_total") == 0 {
				t.Error("mid-load /statusz shows no socket write")
			}
			before := sum(mid, granted)
			eventually(t, "grants to keep moving", func() bool { return srv.total(t, granted) > before })

			if sc.kill {
				eventually(t, "sessions held after enough grants to kill on", func() bool {
					snap := srv.statusz(t)
					return sum(snap, held) > 0 && sum(snap, granted) >= killAfter
				})
				srv.cmd.Process.Kill()
				<-srv.done
				if sc.tear {
					segs, _ := filepath.Glob(filepath.Join(data, "wal-*"))
					if len(segs) == 0 {
						t.Fatalf("no WAL segment to tear in %s", data)
					}
					f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
					if err == nil {
						_, err = f.WriteString("TORNTORNTORNTORN garbage past the last valid frame")
						f.Close()
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				srv = boot(t, srv.addr, flags...) // same address, same directory
			}

			// dineload's exit status: no protocol error, no double grant, and
			// sessions completed — across the faults.
			if code := load.exit(t, wait); code != 0 {
				t.Errorf("dineload exited %d", code)
			}
			if sc.scrape { // a failed scrape does not change the exit status
				load.logged(t, `server-side grant latency \(mid-run, [1-9]\d* grants`)
			}

			// At rest: nothing in flight (a drain would have nothing to time
			// out on) and the accounting conserves, summed over the tables.
			// The counters move one after the other, so let a transition land.
			eventually(t, "in-flight sessions to finish", func() bool { return srv.total(t, inflight) == 0 })
			var g, rg, rel, h int64
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("last accounting seen: granted=%d regranted=%d released=%d held=%d", g, rg, rel, h)
				}
			})
			eventually(t, "granted + regranted == released + held", func() bool {
				snap := srv.statusz(t)
				g, rg, rel, h = sum(snap, granted), sum(snap, regranted), sum(snap, released), sum(snap, held)
				return g+rg == rel+h
			})
			if g == 0 || h != 0 {
				t.Errorf("at rest: granted=%d regranted=%d released=%d held=%d, want grants and no holder", g, rg, rel, h)
			}
			if sc.kill && rg == 0 {
				t.Error("the kill landed on held sessions, but the restarted server regranted none")
			}
			if out := os.Getenv("METRICS_OUT"); out != "" && sc.name == "smoke/flat" {
				raw, _ := json.MarshalIndent(srv.statusz(t), "", "  ")
				if err := os.WriteFile(out, raw, 0o644); err != nil {
					t.Error(err)
				}
			}

			// dineserve's exit status is the AND of its tables' ◇WX verdicts.
			srv.cmd.Process.Signal(syscall.SIGINT)
			if code := srv.exit(t, wait); code != 0 {
				t.Errorf("dineserve exited %d: exclusion check failed", code)
			}
			for _, re := range sc.logs {
				srv.logged(t, re)
			}
			if sc.wal {
				// Every ledger replays with no violation, in the layout served.
				if code := start(t, "walinspect", "-verify", data).exit(t, wait); code != 0 {
					t.Errorf("walinspect -verify exited %d", code)
				}
				want := 0 // flat: the directory is the ledger
				if sc.tables > 1 {
					want = sc.tables
				}
				if dirs, err := wal.TableDirs(data); err != nil || len(dirs) != want {
					t.Errorf("data directory holds %d table-<i>/ ledgers (%v), want %d", len(dirs), err, want)
				}
			}
		})
	}
}
