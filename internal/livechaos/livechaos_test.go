package livechaos

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
)

// sinkBus records every message that reaches it.
type sinkBus struct {
	mu  sync.Mutex
	got []rt.Message
}

func (s *sinkBus) Bind(func(rt.Message), func(string) *metrics.Counter) {}
func (s *sinkBus) Send(m rt.Message) {
	s.mu.Lock()
	s.got = append(s.got, m)
	s.mu.Unlock()
}
func (s *sinkBus) Close() error { return nil }

func (s *sinkBus) payloads() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.got))
	for _, m := range s.got {
		out = append(out, m.Payload.(int))
	}
	return out
}

// TestChaosBusDeterministicDrops feeds the same per-direction message
// sequence through two buses with the same seed: the surviving subsequences
// must be identical — the fault schedule is a function of the seed alone.
func TestChaosBusDeterministicDrops(t *testing.T) {
	run := func() []int {
		sink := &sinkBus{}
		b, err := NewChaosBus(sink, BusConfig{N: 2, Seed: 7, Plan: sim.LinkPlan{Name: "t", Drop: 0.4}})
		if err != nil {
			t.Fatal(err)
		}
		// The bus counts into the table of the runtime it is bound to.
		r := live.New(live.Config{N: 2, Bus: b})
		for i := 0; i < 300; i++ {
			b.Send(rt.Message{From: rt.ProcID(i % 2), To: rt.ProcID(1 - i%2), Port: "x", Payload: i})
		}
		got := sink.payloads()
		if dropped := r.Counter("bus.dropped"); dropped == 0 || int(dropped)+len(got) != 300 {
			t.Fatalf("a 40%% drop plan: bus.dropped=%d, %d of 300 delivered", dropped, len(got))
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestChaosBusPartitionWindow checks that an active lossy window with a Side
// kills exactly the cross-partition links, like the simulator's.
func TestChaosBusPartitionWindow(t *testing.T) {
	sink := &sinkBus{}
	plan := sim.LinkPlan{Name: "t", Windows: []sim.LossyWindow{
		{Start: 0, End: 1 << 40, Drop: 1, Side: []sim.ProcID{0}},
	}}
	b, err := NewChaosBus(sink, BusConfig{N: 3, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	r := live.New(live.Config{N: 3, Bus: b})
	b.Send(rt.Message{From: 0, To: 1, Port: "x", Payload: 1}) // crosses: dropped
	b.Send(rt.Message{From: 2, To: 0, Port: "x", Payload: 2}) // crosses: dropped
	b.Send(rt.Message{From: 1, To: 2, Port: "x", Payload: 3}) // same side: passes
	got := sink.payloads()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("partition window delivered %v, want [3]", got)
	}
	if d, p := r.Counter("bus.dropped"), r.Counter("bus.partitioned"); d != 2 || p != 2 {
		t.Fatalf("bus.dropped=%d bus.partitioned=%d, want 2 and 2", d, p)
	}
}

// TestChaosBusDupAndDelay checks duplication and bounded-reorder delay.
func TestChaosBusDupAndDelay(t *testing.T) {
	sink := &sinkBus{}
	plan := sim.LinkPlan{Name: "t", Dup: 1, ReorderMax: 3}
	b, err := NewChaosBus(sink, BusConfig{N: 2, Plan: plan, Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r := live.New(live.Config{N: 2, Bus: b})
	for i := 0; i < 10; i++ {
		b.Send(rt.Message{From: 0, To: 1, Port: "x", Payload: i})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(sink.payloads()) == 20 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := len(sink.payloads()); got != 20 {
		t.Fatalf("dup=1 delivered %d copies of 10 messages, want 20", got)
	}
	if d := r.Counter("bus.duped"); d != 10 {
		t.Fatalf("bus.duped=%d, want 10", d)
	}
}

// echoServer accepts connections and echoes lines back.
func echoServer(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					line := append(append([]byte(nil), sc.Bytes()...), '\n')
					if _, err := c.Write(line); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestProxyPassThrough: with an empty plan the proxy is a transparent relay.
func TestProxyPassThrough(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(ProxyConfig{Listen: "127.0.0.1:0", Upstream: up})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc := bufio.NewScanner(c)
	for _, msg := range []string{"one", "two", "three"} {
		if _, err := c.Write([]byte(msg + "\n")); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no echo for %q", msg)
		}
		if sc.Text() != msg {
			t.Fatalf("echo %q, want %q", sc.Text(), msg)
		}
	}
}

// TestProxyDupOneDirection: duplicating only the client->server link makes
// every request echo exactly twice.
func TestProxyDupOneDirection(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	plan := sim.LinkPlan{Name: "t", Links: []sim.LinkFault{{From: 0, To: 1, Dup: 1}}}
	p, err := NewProxy(ProxyConfig{Listen: "127.0.0.1:0", Upstream: up, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(c)
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("echo %d missing", i)
		}
		if sc.Text() != "ping" {
			t.Fatalf("echo %d = %q, want ping", i, sc.Text())
		}
	}
}

// TestProxyPartitionWindow: during a full-drop window nothing crosses; after
// it ends, traffic flows again.
func TestProxyPartitionWindow(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	// Window in ticks of 1ms: dead for the first 300ms of the proxy's life.
	plan := sim.LinkPlan{Name: "t", Windows: []sim.LossyWindow{{Start: 0, End: 300, Drop: 1}}}
	p, err := NewProxy(ProxyConfig{Listen: "127.0.0.1:0", Upstream: up, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("early\n")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := bufio.NewReader(c).ReadString('\n'); err == nil {
		t.Fatal("line crossed an active full-drop partition window")
	}
	time.Sleep(400 * time.Millisecond) // window over
	if _, err := c.Write([]byte("late\n")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("post-window line lost: %v", err)
	}
	if line != "late\n" {
		t.Fatalf("post-window echo %q, want late", line)
	}
	if d, _, _ := p.Stats(); d == 0 {
		t.Error("window dropped nothing")
	}
}

// TestProxyReset: with ResetProb 1 the first line kills the connection; a
// reconnect gets a fresh pair.
func TestProxyReset(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(ProxyConfig{Listen: "127.0.0.1:0", Upstream: up, ResetProb: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("doomed\n"))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := bufio.NewReader(c).ReadString('\n'); err == nil {
		t.Fatal("connection survived a certain reset")
	}
	c.Close()
	if _, _, resets := p.Stats(); resets == 0 {
		t.Error("reset counter is zero")
	}
	// The proxy keeps accepting after a reset.
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
}
