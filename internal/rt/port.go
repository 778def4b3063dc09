package rt

import "sync"

// Port names a message port: the handler registered under a port at a
// process receives the messages sent to that port there. Composed protocols
// namespace their ports: the extraction's pair (3, 1) pings on "dx/3-1/ping0",
// and each of its fork tables routes every message on one port named after
// the table, "dx/3-1/0".
//
// Ports are interned. PortOf gives each name an index in one append-only,
// process-wide table, and the Port it returns carries that index ahead of
// the name, so a runtime finds a port's handler by decoding four bytes
// instead of hashing the name. Make a module's ports once, at construction;
// String gives the name back for traces, counters and panics.
//
// A Port is a string type rather than an integer so that a string literal
// still converts to one. Such a bare name works anywhere a Port does, but
// every use of it looks the name up in the table.
type Port string

// portTag opens every interned Port. It never occurs in UTF-8 text, so no
// port name can be mistaken for an interned Port.
const portTag = 0xff

// portHead is the length of an interned Port's prefix: the tag and the
// big-endian index.
const portHead = 5

// ports is the process-wide table: it only ever gains names.
var ports struct {
	mu     sync.Mutex
	byName map[string]Port
}

// PortOf returns the interned Port named name, adding name to the table on
// first use. It is idempotent and safe for concurrent use.
func PortOf(name string) Port {
	if p := Port(name); p.interned() {
		return p
	}
	ports.mu.Lock()
	defer ports.mu.Unlock()
	if p, ok := ports.byName[name]; ok {
		return p
	}
	if ports.byName == nil {
		ports.byName = make(map[string]Port)
	}
	i := len(ports.byName)
	p := Port([]byte{portTag, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}) + Port(name)
	ports.byName[name] = p
	return p
}

func (p Port) interned() bool { return len(p) >= portHead && p[0] == portTag }

// index returns p's index in the process-wide table, interning a bare
// name. Indices are dense from 0 in order of first use.
func (p Port) index() int {
	if !p.interned() {
		p = PortOf(string(p))
	}
	return int(p[1])<<24 | int(p[2])<<16 | int(p[3])<<8 | int(p[4])
}

// String returns the port's name.
func (p Port) String() string {
	if p.interned() {
		return string(p[portHead:])
	}
	return string(p)
}

// Ports numbers the ports one runtime has seen densely from 0, in order of
// first sight, so that the runtime keeps its per-port tables (handlers,
// counts) in slices as long as the ports it uses rather than the
// process-wide table. The zero value is empty. Add must not run
// concurrently with anything else; Lookup, Port and Len may run
// concurrently with each other.
type Ports struct {
	local []int32 // by process-wide index: dense index + 1, or 0 if unseen
	ports []Port  // by dense index: the interned Port
}

// Add returns p's dense index, numbering p if it is new.
func (s *Ports) Add(p Port) int {
	if i, ok := s.Lookup(p); ok {
		return i
	}
	g := p.index()
	if g >= len(s.local) {
		grown := make([]int32, max(g+1, 2*len(s.local)))
		copy(grown, s.local)
		s.local = grown
	}
	s.ports = append(s.ports, PortOf(p.String()))
	s.local[g] = int32(len(s.ports))
	return len(s.ports) - 1
}

// Lookup returns p's dense index, or false if p was never added.
func (s *Ports) Lookup(p Port) (int, bool) {
	if g := p.index(); g < len(s.local) && s.local[g] > 0 {
		return int(s.local[g]) - 1, true
	}
	return 0, false
}

// Port returns the interned Port with dense index i.
func (s *Ports) Port(i int) Port { return s.ports[i] }

// Len returns the number of ports added.
func (s *Ports) Len() int { return len(s.ports) }
