package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPair(t *testing.T) {
	g := Pair(3, 7)
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("pair: n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(3, 7) || !g.HasEdge(7, 3) {
		t.Fatal("pair edge missing or asymmetric")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilders(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
		maxD int
	}{
		{"ring5", Ring(5), 5, 5, 2},
		{"path4", Path(4), 4, 3, 2},
		{"clique4", Clique(4), 4, 6, 3},
		{"star6", Star(6), 6, 5, 5},
		{"grid23", Grid(2, 3), 6, 7, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.g.N() != c.n || c.g.M() != c.m {
				t.Fatalf("n=%d m=%d, want %d %d", c.g.N(), c.g.M(), c.n, c.m)
			}
			if c.g.MaxDegree() != c.maxD {
				t.Fatalf("maxdeg=%d want %d", c.g.MaxDegree(), c.maxD)
			}
			if !c.g.Connected() {
				t.Fatal("builder graph should be connected")
			}
			if err := c.g.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSelfLoopAndDuplicateRejected(t *testing.T) {
	g := New()
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

// TestRandomConnectedProperty: Random graphs are always connected, valid,
// and have at least the spanning-tree edge count.
func TestRandomConnectedProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%8) + 2 // 2..9
		p := float64(pRaw) / 255
		g := Random(n, p, rand.New(rand.NewSource(seed)))
		return g.N() == n && g.M() >= n-1 && g.Connected() && g.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsSortedAndImmutableView(t *testing.T) {
	g := Ring(6)
	for _, p := range g.Nodes() {
		ns := g.Neighbors(p)
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("neighbors of %d not sorted: %v", p, ns)
			}
		}
	}
	if g.Degree(0) != 2 {
		t.Fatalf("ring degree: %d", g.Degree(0))
	}
}

func TestDisconnected(t *testing.T) {
	g := New()
	g.Add(0)
	g.Add(5)
	if g.Connected() {
		t.Fatal("two isolated vertices reported connected")
	}
	if g.Has(sim.ProcID(1)) {
		t.Fatal("phantom vertex")
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 3)
	// Corner, edge, center degrees.
	if g.Degree(0) != 2 || g.Degree(1) != 3 || g.Degree(4) != 4 {
		t.Fatalf("grid degrees: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(4))
	}
}

// TestNamed: each topology name builds what its builder builds, grid picks
// the squarest shape covering n, and an unknown name, or n below a shape's
// minimum, is an error.
func TestNamed(t *testing.T) {
	cases := []struct {
		name string
		n    int
		want *Graph
	}{
		{"ring", 5, Ring(5)},
		{"clique", 4, Clique(4)},
		{"path", 4, Path(4)},
		{"star", 6, Star(6)},
		{"pair", 2, Pair(0, 1)},
		{"grid", 5, Grid(3, 2)},
		{"grid", 9, Grid(3, 3)},
	}
	for _, c := range cases {
		g, err := Named(c.name, c.n)
		if err != nil {
			t.Fatalf("%s n=%d: %v", c.name, c.n, err)
		}
		if !reflect.DeepEqual(g.Edges(), c.want.Edges()) {
			t.Errorf("%s n=%d: built edges %v, want %v", c.name, c.n, g.Edges(), c.want.Edges())
		}
	}
	if _, err := Named("moebius", 4); err == nil {
		t.Error("unknown topology accepted")
	}
	for name, least := range map[string]int{"ring": 3, "clique": 2, "path": 2, "star": 2} {
		if _, err := Named(name, least-1); err == nil {
			t.Errorf("%s n=%d accepted", name, least-1)
		}
		if _, err := Named(name, least); err != nil {
			t.Errorf("%s n=%d: %v", name, least, err)
		}
	}
}
