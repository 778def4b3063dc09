// Package graph provides undirected conflict graphs for dining philosophers
// instances: vertices are processes, edges are sets of shared resources
// contended by the two endpoint neighbors (Lynch's generalization of
// Dijkstra's ring).
package graph

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/rt"
)

// Graph is an undirected conflict graph over a subset of process ids. The
// zero value is an empty graph; use Add/AddEdge or a builder.
type Graph struct {
	nodes []rt.ProcID
	// adj is indexed by vertex id: a vertex's sorted neighbors, non-nil
	// (possibly empty) exactly for the vertices.
	adj   [][]rt.ProcID
	edges [][2]rt.ProcID
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Add inserts a vertex (idempotent). Vertex ids are process ids, so they
// must not be negative.
func (g *Graph) Add(p rt.ProcID) {
	if p < 0 {
		panic(fmt.Sprintf("graph: negative vertex %d", p))
	}
	if g.Has(p) {
		return
	}
	if int(p) >= len(g.adj) {
		g.adj = append(g.adj, make([][]rt.ProcID, int(p)+1-len(g.adj))...)
	}
	g.adj[p] = []rt.ProcID{}
	g.nodes = insertSorted(g.nodes, p)
}

// Bound returns one more than the largest vertex id (0 for the empty
// graph): the length of a slice indexed by vertex.
func (g *Graph) Bound() int { return len(g.adj) }

// AddEdge inserts the undirected edge (u, v), adding the vertices if needed.
// Self-loops and duplicate edges are rejected.
func (g *Graph) AddEdge(u, v rt.ProcID) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.Add(u)
	g.Add(v)
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	if u > v {
		u, v = v, u
	}
	g.edges = append(g.edges, [2]rt.ProcID{u, v})
	return nil
}

// Nodes returns the vertices in ascending order. The caller must not mutate
// the returned slice.
func (g *Graph) Nodes() []rt.ProcID { return g.nodes }

// Edges returns the edges with endpoints in ascending order. The caller must
// not mutate the returned slice.
func (g *Graph) Edges() [][2]rt.ProcID { return g.edges }

// Neighbors returns u's neighbors in ascending order. The caller must not
// mutate the returned slice.
func (g *Graph) Neighbors(u rt.ProcID) []rt.ProcID {
	if u < 0 || int(u) >= len(g.adj) {
		return nil
	}
	return g.adj[u]
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v rt.ProcID) bool {
	for _, w := range g.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// Has reports whether u is a vertex.
func (g *Graph) Has(u rt.ProcID) bool {
	return g.Neighbors(u) != nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.nodes) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the degree of u.
func (g *Graph) Degree(u rt.ProcID) int { return len(g.Neighbors(u)) }

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for _, p := range g.nodes {
		if len(g.adj[p]) > d {
			d = len(g.adj[p])
		}
	}
	return d
}

// Connected reports whether the graph is connected (the empty graph is
// trivially connected).
func (g *Graph) Connected() bool {
	if len(g.nodes) <= 1 {
		return true
	}
	seen := map[rt.ProcID]bool{g.nodes[0]: true}
	stack := []rt.ProcID{g.nodes[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return len(seen) == len(g.nodes)
}

// Validate checks internal consistency (sorted unique adjacency, symmetric
// edges, edge list matching adjacency).
func (g *Graph) Validate() error {
	seen := make(map[[2]rt.ProcID]bool)
	for _, e := range g.edges {
		if e[0] >= e[1] {
			return fmt.Errorf("graph: unnormalized edge %v", e)
		}
		if seen[e] {
			return fmt.Errorf("graph: duplicate edge %v", e)
		}
		seen[e] = true
		if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
			return fmt.Errorf("graph: asymmetric edge %v", e)
		}
	}
	total := 0
	for _, p := range g.nodes {
		ns := g.adj[p]
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				return fmt.Errorf("graph: adjacency of %d not sorted unique", p)
			}
		}
		total += len(ns)
	}
	if total != 2*len(g.edges) {
		return fmt.Errorf("graph: adjacency/edge mismatch: %d vs %d", total, 2*len(g.edges))
	}
	return nil
}

func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}

func insertSorted(s []rt.ProcID, v rt.ProcID) []rt.ProcID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Pair returns the 2-vertex graph with the single edge (a, b) — the conflict
// graph of every dining instance used by the extraction algorithm.
func Pair(a, b rt.ProcID) *Graph {
	g := New()
	if err := g.AddEdge(a, b); err != nil {
		panic(err)
	}
	return g
}

// Ring returns the n-cycle over processes 0..n-1 (Dijkstra's original
// topology). n must be at least 3.
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: ring needs n >= 3")
	}
	g := New()
	for i := 0; i < n; i++ {
		mustEdge(g, rt.ProcID(i), rt.ProcID((i+1)%n))
	}
	return g
}

// Path returns the n-vertex path 0-1-...-(n-1). n must be at least 2.
func Path(n int) *Graph {
	if n < 2 {
		panic("graph: path needs n >= 2")
	}
	g := New()
	for i := 0; i+1 < n; i++ {
		mustEdge(g, rt.ProcID(i), rt.ProcID(i+1))
	}
	return g
}

// Clique returns the complete graph on 0..n-1 (the mutual-exclusion special
// case of dining). n must be at least 2.
func Clique(n int) *Graph {
	if n < 2 {
		panic("graph: clique needs n >= 2")
	}
	g := New()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mustEdge(g, rt.ProcID(i), rt.ProcID(j))
		}
	}
	return g
}

// Star returns the star with center 0 and n-1 leaves. n must be at least 2.
func Star(n int) *Graph {
	if n < 2 {
		panic("graph: star needs n >= 2")
	}
	g := New()
	for i := 1; i < n; i++ {
		mustEdge(g, 0, rt.ProcID(i))
	}
	return g
}

// Grid returns the rows x cols grid graph, numbering vertices row-major.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic("graph: grid needs at least 2 vertices")
	}
	g := New()
	id := func(r, c int) rt.ProcID { return rt.ProcID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustEdge(g, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				mustEdge(g, id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Named builds the conflict graph a topology name stands for over n
// processes: ring, clique, path, star, pair (the single edge 0-1, whatever
// n) or grid (the squarest rows x cols grid with at least n vertices, rows
// at least 2). n below the shape's minimum (ring 3; clique, path and star
// 2) is an error.
func Named(topology string, n int) (*Graph, error) {
	least := map[string]int{"ring": 3, "clique": 2, "path": 2, "star": 2}[topology]
	if n < least {
		return nil, fmt.Errorf("%s topology needs n >= %d, got %d", topology, least, n)
	}
	switch topology {
	case "ring":
		return Ring(n), nil
	case "clique":
		return Clique(n), nil
	case "path":
		return Path(n), nil
	case "star":
		return Star(n), nil
	case "pair":
		return Pair(0, 1), nil
	case "grid":
		r := 2
		for r*r < n {
			r++
		}
		return Grid(r, (n+r-1)/r), nil
	}
	return nil, fmt.Errorf("unknown topology %q", topology)
}

// Random returns a connected Erdős–Rényi-style graph on 0..n-1: a random
// spanning tree plus each remaining edge independently with probability p.
func Random(n int, p float64, rng *rand.Rand) *Graph {
	if n < 2 {
		panic("graph: random needs n >= 2")
	}
	g := New()
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := rt.ProcID(perm[i])
		v := rt.ProcID(perm[rng.Intn(i)])
		mustEdge(g, u, v)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u, v := rt.ProcID(i), rt.ProcID(j)
			if !g.HasEdge(u, v) && rng.Float64() < p {
				mustEdge(g, u, v)
			}
		}
	}
	return g
}

func mustEdge(g *Graph, u, v rt.ProcID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}
