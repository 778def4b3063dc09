package livechaos

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/internal/sim"
)

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
