// Package lockproto defines the client-facing wire protocol of the
// dineserve lock/session service: newline-delimited JSON objects over TCP,
// chosen so that a plain `nc` session is a usable client. One line is one
// message, of at most 64 KiB (LF or CRLF ends it, blank lines are skipped);
// the server closes a connection whose line runs longer. Requests travel
// client→server, events server→client. The protocol is asynchronous on the
// server side — suspect-stream events may interleave with command replies on
// a watching connection — but replies to one connection's acquire/release
// requests arrive in request order.
package lockproto

// Request operations.
const (
	// OpAcquire asks for an eating session on a diner. The server replies
	// with EvGranted when the dining layer grants the critical section (or
	// EvError). ID names the session for the later release.
	OpAcquire = "acquire"
	// OpRelease ends a previously granted session (by Diner and ID).
	OpRelease = "release"
	// OpWatch subscribes this connection to the extracted ◇P suspect
	// stream: a snapshot of the current suspicion matrix, then one
	// EvSuspect per output change. After the snapshot every change
	// arrives, in order, or the connection is closed: a watcher that stops
	// reading is cut off, never sent a stream with holes in it. One watch
	// per connection: a repeat is refused with EvError "already watching".
	OpWatch = "watch"
	// OpInfo asks for service parameters (diner count).
	OpInfo = "info"
)

// Event kinds.
const (
	EvGranted  = "granted"  // session entered the critical section
	EvReleased = "released" // session exited and the diner is free again
	EvSuspect  = "suspect"  // ◇P output change (or snapshot entry): Of's module about Peer
	EvInfo     = "info"     // reply to OpInfo
	EvError    = "error"    // request failed; Msg explains
)

// Request is one client command.
type Request struct {
	Op    string `json:"op"`
	Diner int    `json:"diner,omitempty"`
	ID    string `json:"id,omitempty"`
}

// Event is one server message.
type Event struct {
	Ev    string `json:"ev"`
	Diner int    `json:"diner,omitempty"`
	ID    string `json:"id,omitempty"`

	// Suspect-stream fields: Of's ◇P module output about Peer changed to
	// Suspect at server time T.
	Of      int  `json:"of,omitempty"`
	Peer    int  `json:"peer,omitempty"`
	Suspect bool `json:"suspect,omitempty"`

	// Info fields: total diner count, and how many independent dining
	// tables the process shards them over (0 is read as 1 by old servers'
	// omission — single-table).
	Diners int `json:"diners,omitempty"`
	Tables int `json:"tables,omitempty"`

	T   int64  `json:"t,omitempty"` // server clock, in ticks
	Msg string `json:"msg,omitempty"`
}

// TableOf maps a global diner id onto one of tables independent dining
// tables. It is the routing function shared by the server-side key router
// (internal/dinesvc) and by clients that want to attribute their sessions to
// shards (cmd/dineload), so it must be stable across processes and releases:
// a splitmix64 finalizer over the diner id, reduced mod tables. Changing it
// invalidates every sharded data directory's diner→table assignment.
func TableOf(diner, tables int) int {
	if tables <= 1 {
		return 0
	}
	x := uint64(int64(diner)) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(tables))
}
