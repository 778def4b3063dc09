// Command chaosproxy is a standalone fault-injecting TCP proxy for
// line-oriented protocols — put it in front of dineserve and point dineload
// at it to subject the client/server path to the same declarative link
// faults the simulator and the live runtime's link plans use. The -plan file is
// a chaos.LinkSpec JSON (drop/dup/reorder plus timed partition windows)
// interpreted over the two-node link client=0, server=1; the identical file
// drives `chaos -live -liveplan`. Faults are line-aware: frames are delayed,
// dropped, or duplicated whole, never corrupted.
//
// The fault schedule is derived from -seed alone, so two proxies with the
// same plan, seed, and traffic make the same per-line decisions.
//
//	chaosproxy -listen 127.0.0.1:7017 -upstream 127.0.0.1:7117 \
//	    -plan plan.json -seed 7 -reset 0.001
//
// On SIGINT the proxy reports its fault counters and exits 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/livechaos"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "address to accept client connections on")
		upstream = flag.String("upstream", "", "server address to relay to (required)")
		planFile = flag.String("plan", "", "chaos.LinkSpec JSON file (empty: no link faults)")
		seed     = flag.Int64("seed", 1, "fault-schedule seed")
		tick     = flag.Duration("tick", time.Millisecond, "wall-clock duration of one plan tick")
		reset    = flag.Float64("reset", 0, "per-line connection-reset probability, [0, 1)")
		maxLine  = flag.Int("max-line", 1<<20, "maximum relayed line length in bytes")
	)
	flag.Parse()
	if *upstream == "" {
		fmt.Fprintln(os.Stderr, "chaosproxy: -upstream is required")
		os.Exit(2)
	}

	var links *chaos.LinkSpec
	if *planFile != "" {
		raw, err := os.ReadFile(*planFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaosproxy:", err)
			os.Exit(2)
		}
		links = &chaos.LinkSpec{}
		if err := json.Unmarshal(raw, links); err != nil {
			fmt.Fprintf(os.Stderr, "chaosproxy: bad -plan %s: %v\n", *planFile, err)
			os.Exit(2)
		}
	}

	p, err := livechaos.NewProxy(livechaos.ProxyConfig{
		Listen:    *listen,
		Upstream:  *upstream,
		Plan:      links.Plan(),
		Seed:      *seed,
		Tick:      *tick,
		ResetProb: *reset,
		MaxLine:   *maxLine,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosproxy:", err)
		os.Exit(1)
	}
	fmt.Printf("chaosproxy: listening on %s -> %s (plan %s, seed %d)\n",
		p.Addr(), *upstream, links.String(), *seed)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	dropped, duped, resets := p.Stats()
	p.Close()
	fmt.Printf("chaosproxy: dropped=%d duped=%d resets=%d\n", dropped, duped, resets)
}
