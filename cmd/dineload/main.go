// Command dineload is a concurrent load generator for dineserve: it opens
// -clients TCP connections, and each client loops acquire → hold → release
// against a randomly chosen diner until -duration elapses. It reports
// sessions completed, throughput, and acquire-latency percentiles (request
// sent → grant received), and optionally counts events on the ◇P suspect
// stream over a separate watch connection.
//
// Exit status is non-zero if any client saw a protocol error or a double
// grant (each double grant also counts as an error), if no session
// completed at all, or if the watch connection failed to open or the server
// ended it before the load did (the stream carries every change or closes,
// so a cut watcher has missed changes). The end-to-end harness
// (internal/e2e) asserts on it instead of reading the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockproto"
	"repro/internal/metrics"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7117", "dineserve address")
		clients  = flag.Int("clients", 64, "concurrent client connections")
		duration = flag.Duration("duration", 5*time.Second, "load duration")
		hold     = flag.Duration("hold", 2*time.Millisecond, "how long each session holds the lock")
		opTO     = flag.Duration("op-timeout", 15*time.Second, "per-reply read deadline")
		watch    = flag.Bool("watch", true, "also stream ◇P suspect events on a side connection")
		scrape   = flag.String("scrape", "", "dineserve -metrics base URL (e.g. http://127.0.0.1:9117): scrape /statusz mid-run and report the server-side grant latency next to the client-side numbers")
	)
	flag.Parse()

	diners, tables, err := probe(*addr, *opTO)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dineload: cannot reach server: %v\n", err)
		os.Exit(1)
	}

	var suspectEvents atomic.Int64
	watchDone := make(chan struct{})
	watchErr := make(chan error, 1)
	if *watch {
		go func() { watchErr <- watchSuspects(*addr, &suspectEvents, watchDone) }()
	}

	// Session ids must be unique per load-generator *process*, not just per
	// client goroutine: the server's session registry is keyed (diner, id),
	// and two concurrent dineloads reusing "c0-0" would collide on each
	// other's sessions and tombstones.
	prefix := fmt.Sprintf("%06x", rand.New(rand.NewSource(time.Now().UnixNano()+int64(os.Getpid())<<20)).Intn(1<<24))

	// The mid-run scrape fires at half duration — the load is in steady
	// state, so the server's histogram and the clients' agree on what the
	// same grants cost from each side.
	scrapeCh := make(chan *metrics.Snapshot, 1)
	if *scrape != "" {
		go func() {
			time.Sleep(*duration / 2)
			snap, err := scrapeStatusz(*scrape, *opTO)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dineload: scrape: %v\n", err)
			}
			scrapeCh <- snap // nil on error: reported once at the end
		}()
	}

	deadline := time.Now().Add(*duration)
	results := make([]clientResult, *clients)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runClient(prefix, i, *addr, diners, tables, deadline, *hold, *opTO)
		}(i)
	}
	wg.Wait()
	close(watchDone)

	lat := metrics.NewHist()
	sessions, errs, reconns, abandoned, dblGrants := 0, 0, 0, 0, 0
	perTable := make([]int, tables)
	for i := range results {
		res := &results[i]
		sessions += res.sessions
		errs += res.errors
		reconns += res.reconnects
		abandoned += res.abandoned
		dblGrants += res.doubleGrants
		for t, n := range res.perTable {
			perTable[t] += n
		}
		lat.Merge(res.lat)
	}
	elapsed := *duration
	rate := float64(sessions) / elapsed.Seconds()
	if tables > 1 {
		fmt.Printf("dineload: %d clients for %v against %s (%d diners over %d tables)\n", *clients, *duration, *addr, diners, tables)
	} else {
		fmt.Printf("dineload: %d clients for %v against %s (%d diners)\n", *clients, *duration, *addr, diners)
	}
	fmt.Printf("dineload: %d sessions, %.1f/s, errors: %d, reconnects: %d, abandoned: %d, double-grants: %d\n",
		sessions, rate, errs, reconns, abandoned, dblGrants)
	if tables > 1 {
		// Per-table completion counts, derived client-side from the same
		// pinned hash the server routes with — a table sitting at zero here
		// means its shard served nothing, however healthy the total looks.
		line := "dineload: sessions per table:"
		for t, n := range perTable {
			line += fmt.Sprintf(" table-%d=%d", t, n)
		}
		fmt.Println(line)
	}
	if lat.Count() > 0 {
		fmt.Printf("dineload: acquire latency p50=%v p95=%v p99=%v max=%v\n",
			lat.PctDuration(50), lat.PctDuration(95), lat.PctDuration(99), lat.MaxDuration())
	}
	if *scrape != "" {
		if snap := <-scrapeCh; snap != nil {
			// The server observes acquire-received → grant-sent; the client
			// observes request-sent → grant-received. The gap between the two
			// is the wire plus the client's own scheduling. A sharded server
			// exposes one labeled histogram per table under the same base
			// name, so match by prefix and report each series.
			const histBase = "dineserve_grant_latency_seconds"
			var names []string
			for name := range snap.Hists {
				if name == histBase || strings.HasPrefix(name, histBase+"{") {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			if len(names) == 0 {
				fmt.Fprintln(os.Stderr, "dineload: scrape: server exposes no "+histBase)
			} else {
				sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
				if len(names) == 1 {
					hs := snap.Hists[names[0]]
					fmt.Printf("dineload: server-side grant latency (mid-run, %d grants) p50=%v p95=%v p99=%v max=%v\n",
						hs.Count, sec(hs.P50), sec(hs.P95), sec(hs.P99), sec(hs.Max))
					if lat.Count() > 0 && hs.Count > 0 {
						fmt.Printf("dineload: client-vs-server p50 gap: %v (wire + client scheduling)\n",
							lat.PctDuration(50)-sec(hs.P50))
					}
				} else {
					var total int64
					for _, name := range names {
						total += snap.Hists[name].Count
					}
					fmt.Printf("dineload: server-side grant latency (mid-run, %d grants over %d tables):\n", total, len(names))
					for _, name := range names {
						hs := snap.Hists[name]
						fmt.Printf("dineload:   %s p50=%v p95=%v p99=%v max=%v (%d grants)\n",
							name[len(histBase):], sec(hs.P50), sec(hs.P95), sec(hs.P99), sec(hs.Max), hs.Count)
					}
				}
			}
		}
	}
	failed := errs > 0 || sessions == 0 // a double grant is counted as an error too
	if *watch {
		fmt.Printf("dineload: suspect-stream events: %d\n", suspectEvents.Load())
		if err := <-watchErr; err != nil {
			fmt.Fprintf(os.Stderr, "dineload: watch: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// scrapeStatusz fetches the server's JSON metrics snapshot.
func scrapeStatusz(base string, timeout time.Duration) (*metrics.Snapshot, error) {
	cli := &http.Client{Timeout: timeout}
	resp, err := cli.Get(base + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /statusz: %s", resp.Status)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// probe asks the server for its diner and table counts. A pre-sharding
// server omits the tables field; treat that as one table.
func probe(addr string, timeout time.Duration) (int, int, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(timeout))
	if err := lockproto.WriteRequest(c, &lockproto.Request{Op: lockproto.OpInfo}); err != nil {
		return 0, 0, err
	}
	var ev lockproto.Event
	if err := lockproto.NewEventReader(c).Read(&ev); err != nil {
		return 0, 0, err
	}
	if ev.Ev != lockproto.EvInfo || ev.Diners < 1 {
		return 0, 0, fmt.Errorf("unexpected info reply %+v", ev)
	}
	tables := ev.Tables
	if tables < 1 {
		tables = 1
	}
	return ev.Diners, tables, nil
}

// watchSuspects counts suspect-stream events until done closes. It returns
// an error if the connection cannot be opened, the watch is refused, or the
// stream ends before done closes.
func watchSuspects(addr string, n *atomic.Int64, done <-chan struct{}) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	go func() {
		<-done
		c.Close() // unblocks the decoder
	}()
	ended := func(err error) error {
		select {
		case <-done:
			return nil
		default:
			return err
		}
	}
	if err := lockproto.WriteRequest(c, &lockproto.Request{Op: lockproto.OpWatch}); err != nil {
		return ended(err)
	}
	er := lockproto.NewEventReader(c)
	for {
		var ev lockproto.Event
		if err := er.Read(&ev); err != nil {
			return ended(fmt.Errorf("stream ended before the load: %w", err))
		}
		switch ev.Ev {
		case lockproto.EvSuspect:
			n.Add(1)
		case lockproto.EvError:
			return fmt.Errorf("refused: %s", ev.Msg)
		}
	}
}

type clientResult struct {
	sessions   int
	perTable   []int // sessions per server table (lockproto.TableOf of the diner)
	errors     int
	reconnects int
	abandoned  int // sessions lost to lease expiry while disconnected
	// doubleGrants counts EvGranted events for a session this client had
	// already finished — the client-visible form of a broken
	// no-double-grant guarantee (e.g. a server that forgot a release across
	// a crash). Always a protocol error.
	doubleGrants int
	lat          *metrics.Hist // acquire latency (request sent → grant received)
}

// exchange outcomes.
type xResult int

const (
	xOK      xResult = iota
	xAbandon         // give this session up, move on to the next id
	xStop            // the run is over (deadline, drain, or unreachable)
)

// client is a self-healing dineload connection: every dial or read failure
// triggers a reconnect with capped exponential backoff, after which the
// in-flight request is replayed under the same session id — the server's
// idempotent session registry (internal/lockproto.Sessions) makes the replay
// safe, so a connection reset mid-run costs a retry, never a wrong result.
type client struct {
	addr     string
	deadline time.Time
	opTO     time.Duration

	conn net.Conn
	er   *lockproto.EventReader
	res  clientResult
	// done holds every session this client has finished with (released, or
	// reclaimed by the server), keyed exactly as the server's registry keys
	// them: (diner, id). A grant arriving for one of them can only mean the
	// server re-entered a dead session's critical section — and on a sharded
	// server two tables could legitimately run same-named ids for different
	// diners, so the id alone is not identity.
	done map[lockproto.Key]bool
}

// reconnect (re)establishes the connection, backing off 50ms→2s between
// attempts until the run deadline. Returns false when the deadline passes
// first.
func (cl *client) reconnect() bool {
	first := cl.conn == nil
	if cl.conn != nil {
		cl.conn.Close()
		cl.conn = nil
	}
	backoff := 50 * time.Millisecond
	for time.Now().Before(cl.deadline) {
		c, err := net.DialTimeout("tcp", cl.addr, cl.opTO)
		if err == nil {
			cl.conn, cl.er = c, lockproto.NewEventReader(c)
			if !first {
				cl.res.reconnects++
			}
			return true
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
	return false
}

// exchange sends req and waits for wantEv with a matching id, reconnecting
// and replaying on any transport error.
func (cl *client) exchange(req lockproto.Request, wantEv string) xResult {
	for {
		if cl.conn == nil && !cl.reconnect() {
			return xStop
		}
		if err := lockproto.WriteRequest(cl.conn, &req); err != nil {
			if !cl.reconnect() {
				return xStop
			}
			continue // replay on the fresh connection
		}
		cl.conn.SetReadDeadline(time.Now().Add(cl.opTO))
		for {
			var ev lockproto.Event
			if err := cl.er.Read(&ev); err != nil {
				if !cl.reconnect() {
					return xStop
				}
				break // replay
			}
			if ev.Ev == lockproto.EvGranted && cl.done[lockproto.Key{Diner: ev.Diner, ID: ev.ID}] {
				cl.res.doubleGrants++
				cl.res.errors++
			}
			if ev.Ev == lockproto.EvError && ev.ID == req.ID {
				switch ev.Msg {
				case "draining":
					// Expected while the run winds down.
					return xStop
				case "overloaded", "busy":
					// Graceful shedding: back off and replay the same id.
					time.Sleep(100 * time.Millisecond)
				case "session expired", "unknown session":
					// We were away past the lease; the server reclaimed the
					// session. Not a protocol error — start a fresh id.
					cl.res.abandoned++
					return xAbandon
				default:
					cl.res.errors++
					return xAbandon
				}
				break // resend
			}
			if ev.Ev == wantEv && ev.ID == req.ID {
				return xOK
			}
			// Unrelated event (e.g. a replayed ack for an earlier id): skip.
		}
	}
}

// runClient loops acquire → hold → release until the deadline, surviving
// connection resets: a single dial or read error no longer ends the client.
func runClient(prefix string, id int, addr string, diners, tables int, deadline time.Time, hold, opTO time.Duration) clientResult {
	cl := &client{addr: addr, deadline: deadline, opTO: opTO, done: make(map[lockproto.Key]bool)}
	cl.res.lat = metrics.NewHist()
	cl.res.perTable = make([]int, tables)
	defer func() {
		if cl.conn != nil {
			cl.conn.Close()
		}
	}()
	rng := rand.New(rand.NewSource(int64(id)*7919 + 1))

	for seq := 0; time.Now().Before(deadline); seq++ {
		diner := rng.Intn(diners)
		key := lockproto.Key{Diner: diner, ID: fmt.Sprintf("%s-c%d-%d", prefix, id, seq)}
		start := time.Now()
		switch cl.exchange(lockproto.Request{Op: lockproto.OpAcquire, Diner: diner, ID: key.ID}, lockproto.EvGranted) {
		case xStop:
			return cl.res
		case xAbandon:
			cl.done[key] = true // server reclaimed it: any later grant is bogus
			continue
		}
		cl.res.lat.ObserveDuration(time.Since(start))
		time.Sleep(hold)
		rel := cl.exchange(lockproto.Request{Op: lockproto.OpRelease, Diner: diner, ID: key.ID}, lockproto.EvReleased)
		cl.done[key] = true
		switch rel {
		case xStop:
			return cl.res
		case xAbandon:
			continue
		}
		cl.res.sessions++
		cl.res.perTable[lockproto.TableOf(diner, tables)]++
	}
	return cl.res
}
