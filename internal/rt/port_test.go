package rt

import (
	"fmt"
	"sync"
	"testing"
)

// TestPortOfIdempotent: interning a name twice, or interning an interned
// Port's own string, gives the same Port; the Port names itself and shares
// its index with the bare name; distinct names get distinct indices.
func TestPortOfIdempotent(t *testing.T) {
	names := []string{"", "hb", "dx/3-1/0/fork", "ß/日本語", "a\x00b"}
	seen := map[int]string{}
	for _, name := range names {
		p := PortOf(name)
		if q := PortOf(name); q != p {
			t.Fatalf("PortOf(%q) twice: %q then %q", name, p, q)
		}
		if q := PortOf(string(p)); q != p {
			t.Fatalf("PortOf of interned %q gave %q", name, q)
		}
		if p.String() != name || Port(name).String() != name {
			t.Fatalf("PortOf(%q).String() = %q", name, p.String())
		}
		if got := fmt.Sprintf("%s %q %v", p, p, p); got != fmt.Sprintf("%s %q %v", name, name, name) {
			t.Fatalf("formatting %q: %s", name, got)
		}
		i := p.index()
		if Port(name).index() != i {
			t.Fatalf("bare %q has index %d, interned %d", name, Port(name).index(), i)
		}
		if other, dup := seen[i]; dup {
			t.Fatalf("%q and %q share index %d", other, name, i)
		}
		seen[i] = name
	}
}

// TestPortOfConcurrent: goroutines interning overlapping names at once all
// agree on every name's Port, and the indices stay distinct per name. Run
// under -race it also checks the table's locking.
func TestPortOfConcurrent(t *testing.T) {
	const workers, names = 8, 64
	got := make([][]Port, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				j := (i + w*7) % names // each worker in its own order
				p := PortOf(fmt.Sprintf("concurrent/%d", j))
				if got[w] == nil {
					got[w] = make([]Port, names)
				}
				got[w][j] = p
				_ = p.index()
			}
		}(w)
	}
	wg.Wait()
	index := map[int]int{}
	for j := 0; j < names; j++ {
		p := got[0][j]
		for w := 1; w < workers; w++ {
			if got[w][j] != p {
				t.Fatalf("name %d: worker 0 got %q, worker %d got %q", j, p, w, got[w][j])
			}
		}
		if p.String() != fmt.Sprintf("concurrent/%d", j) {
			t.Fatalf("name %d interned as %q", j, p.String())
		}
		if k, dup := index[p.index()]; dup {
			t.Fatalf("names %d and %d share index %d", k, j, p.index())
		}
		index[p.index()] = j
	}
}

// TestPortsDense: a runtime's numbering is dense in order of first sight,
// treats a bare name and its interned Port as one port, and hands back the
// interned Port.
func TestPortsDense(t *testing.T) {
	var s Ports
	a, b := PortOf("dense/a"), PortOf("dense/b")
	if _, ok := s.Lookup(a); ok {
		t.Fatal("empty Ports found a port")
	}
	if i := s.Add(b); i != 0 {
		t.Fatalf("first port numbered %d", i)
	}
	if i := s.Add("dense/a"); i != 1 {
		t.Fatalf("second port numbered %d", i)
	}
	if i := s.Add(a); i != 1 {
		t.Fatalf("interned form of the second port numbered %d", i)
	}
	if i, ok := s.Lookup("dense/b"); !ok || i != 0 {
		t.Fatalf("Lookup of bare first port: %d, %v", i, ok)
	}
	if s.Len() != 2 || s.Port(0) != b || s.Port(1) != a {
		t.Fatalf("Ports holds %d: %q, %q", s.Len(), s.Port(0), s.Port(1))
	}
}
