package lockproto

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file is the hot-path wire codec: a hand-rolled, append-based
// JSON-lines encoder/decoder for the protocol's small fixed message set
// (Request and Event). The generic encoding/json path costs reflection and
// several heap allocations per message on both sides of every request; the
// service's request pipeline replaces it with these routines, which append
// into reusable buffers and allocate nothing in the steady state.
//
// The wire format is unchanged, byte for byte. AppendRequest/AppendEvent
// produce exactly what json.Marshal produces for the same value — field
// order, omitempty behaviour, and Go's string escaping (short escapes for
// \b \f \n \r \t, \u00xx for other control bytes, HTML-escaped < > &,
// escaped U+2028/U+2029, and � for invalid UTF-8) — so old clients,
// chaosproxy, and `nc` sessions interoperate unmodified.
// FuzzWireCodecEquivalence holds both directions to the stdlib
// differentially.
//
// Decoding takes the same shape as the rest of the repo's hot paths: a fast
// path that handles the traffic the service actually sees (lowercase keys,
// plain-ASCII strings, integer literals) with zero allocations beyond the
// decoded strings, and a bail-out to encoding/json for everything unusual —
// escaped strings, non-ASCII, case-folded or unknown keys, floats, nested
// values — so semantics off the fast path are the stdlib's by construction.

// AppendRequest appends the JSON encoding of r (as json.Marshal would
// produce it, no trailing newline) to dst and returns the extended slice.
func AppendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, `{"op":`...)
	dst = appendJSONString(dst, r.Op)
	if r.Diner != 0 {
		dst = append(dst, `,"diner":`...)
		dst = strconv.AppendInt(dst, int64(r.Diner), 10)
	}
	if r.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = appendJSONString(dst, r.ID)
	}
	return append(dst, '}')
}

// AppendEvent appends the JSON encoding of e (as json.Marshal would produce
// it, no trailing newline) to dst and returns the extended slice.
func AppendEvent(dst []byte, e *Event) []byte {
	dst = append(dst, `{"ev":`...)
	dst = appendJSONString(dst, e.Ev)
	if e.Diner != 0 {
		dst = append(dst, `,"diner":`...)
		dst = strconv.AppendInt(dst, int64(e.Diner), 10)
	}
	if e.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = appendJSONString(dst, e.ID)
	}
	if e.Of != 0 {
		dst = append(dst, `,"of":`...)
		dst = strconv.AppendInt(dst, int64(e.Of), 10)
	}
	if e.Peer != 0 {
		dst = append(dst, `,"peer":`...)
		dst = strconv.AppendInt(dst, int64(e.Peer), 10)
	}
	if e.Suspect {
		dst = append(dst, `,"suspect":true`...)
	}
	if e.Diners != 0 {
		dst = append(dst, `,"diners":`...)
		dst = strconv.AppendInt(dst, int64(e.Diners), 10)
	}
	if e.Tables != 0 {
		dst = append(dst, `,"tables":`...)
		dst = strconv.AppendInt(dst, int64(e.Tables), 10)
	}
	if e.T != 0 {
		dst = append(dst, `,"t":`...)
		dst = strconv.AppendInt(dst, e.T, 10)
	}
	if e.Msg != "" {
		dst = append(dst, `,"msg":`...)
		dst = appendJSONString(dst, e.Msg)
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with exactly the
// escaping encoding/json applies under its default (HTML-escaping) mode.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Other control bytes and the HTML trio < > &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// wireBufs recycles encode buffers across messages and connections.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// WriteRequest encodes r as one newline-terminated JSON line and writes it
// to w in a single Write call, allocating nothing in the steady state.
func WriteRequest(w io.Writer, r *Request) error {
	bp := wireBufs.Get().(*[]byte)
	buf := AppendRequest((*bp)[:0], r)
	buf = append(buf, '\n')
	_, err := w.Write(buf)
	*bp = buf
	wireBufs.Put(bp)
	return err
}

// errFallback is the fast parser's internal "give up" signal: the input is
// outside the fast subset (or malformed), so the caller re-parses the same
// bytes with encoding/json and returns whatever it decides.
var errFallback = fmt.Errorf("lockproto: wire fast path bailed")

// DecodeRequest parses one JSON object (plus optional surrounding
// whitespace) into req with encoding/json semantics.
func DecodeRequest(data []byte, req *Request) error {
	if err := decodeRequestFast(data, req); err != errFallback {
		return err
	}
	return json.Unmarshal(data, req)
}

// DecodeEvent parses one JSON object (plus optional surrounding whitespace)
// into ev with encoding/json semantics.
func DecodeEvent(data []byte, ev *Event) error {
	if err := decodeEventFast(data, ev); err != errFallback {
		return err
	}
	return json.Unmarshal(data, ev)
}

func isJSONSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && isJSONSpace(data[i]) {
		i++
	}
	return i
}

// fastString scans a string literal starting at the opening quote at
// data[i]. It succeeds only for plain printable-ASCII contents — any escape
// sequence, control byte, or non-ASCII byte bails to the stdlib, which owns
// the full escaping/UTF-8-replacement semantics. Returns the contents and
// the index just past the closing quote.
func fastString(data []byte, i int) (s []byte, next int, err error) {
	i++ // opening quote
	start := i
	for i < len(data) {
		switch b := data[i]; {
		case b == '"':
			return data[start:i], i + 1, nil
		case b == '\\' || b < 0x20 || b >= utf8.RuneSelf:
			return nil, 0, errFallback
		default:
			i++
		}
	}
	return nil, 0, errFallback
}

// fastInt scans an integer literal starting at data[i]. Floats, exponents,
// and out-of-range values bail to the stdlib.
func fastInt(data []byte, i int) (v int64, next int, err error) {
	start := i
	if i < len(data) && data[i] == '-' {
		i++
	}
	first := i
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	if digits := i - first; digits == 0 || digits > 18 {
		return 0, 0, errFallback // not a plain int, or near the int64 edge
	} else if digits > 1 && data[first] == '0' {
		return 0, 0, errFallback // a leading zero, which JSON forbids
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, 0, errFallback
	}
	v, perr := strconv.ParseInt(string(data[start:i]), 10, 64)
	if perr != nil {
		return 0, 0, errFallback
	}
	return v, i, nil
}

// fastLiteral matches one of the fixed literals true/false/null at data[i].
func fastLiteral(data []byte, i int, lit string) (next int, err error) {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return 0, errFallback
	}
	return i + len(lit), nil
}

// fastStringValue parses a string (or null no-op) value into *sp.
func fastStringValue(data []byte, i int, sp *string) (int, error) {
	if data[i] == 'n' {
		return fastLiteral(data, i, "null")
	}
	if data[i] != '"' {
		return 0, errFallback
	}
	s, next, err := fastString(data, i)
	if err != nil {
		return 0, errFallback
	}
	*sp = string(s)
	return next, nil
}

// fastIntValue parses an int (or null no-op) value into *ip.
func fastIntValue(data []byte, i int, ip *int) (int, error) {
	if data[i] == 'n' {
		return fastLiteral(data, i, "null")
	}
	v, next, err := fastInt(data, i)
	if err != nil || int64(int(v)) != v {
		return 0, errFallback
	}
	*ip = int(v)
	return next, nil
}

// fastInt64Value parses an int64 (or null no-op) value into *ip.
func fastInt64Value(data []byte, i int, ip *int64) (int, error) {
	if data[i] == 'n' {
		return fastLiteral(data, i, "null")
	}
	v, next, err := fastInt(data, i)
	if err != nil {
		return 0, errFallback
	}
	*ip = v
	return next, nil
}

// fastBoolValue parses a bool (or null no-op) value into *bp.
func fastBoolValue(data []byte, i int, bp *bool) (int, error) {
	switch data[i] {
	case 'n':
		return fastLiteral(data, i, "null")
	case 't':
		next, err := fastLiteral(data, i, "true")
		if err == nil {
			*bp = true
		}
		return next, err
	case 'f':
		next, err := fastLiteral(data, i, "false")
		if err == nil {
			*bp = false
		}
		return next, err
	}
	return 0, errFallback
}

// objectShell drives the flat-object scan shared by both message types:
// open brace, key/value pairs handed to setField, close brace, nothing but
// whitespace after. setField dispatches on the key and returns the index
// past the value, or errFallback for unknown or case-folded keys, escaped
// or non-ASCII strings, floats, and nested values — anything the caller
// must defer to encoding/json for.
func objectShell(data []byte, setField func(key []byte, i int) (int, error)) error {
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return errFallback
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		i++
	} else {
		for {
			if i >= len(data) || data[i] != '"' {
				return errFallback
			}
			key, next, err := fastString(data, i)
			if err != nil {
				return errFallback
			}
			i = skipSpace(data, next)
			if i >= len(data) || data[i] != ':' {
				return errFallback
			}
			i = skipSpace(data, i+1)
			if i >= len(data) {
				return errFallback
			}
			if i, err = setField(key, i); err != nil {
				return errFallback
			}
			i = skipSpace(data, i)
			if i >= len(data) {
				return errFallback
			}
			if data[i] == ',' {
				i = skipSpace(data, i+1)
				continue
			}
			if data[i] == '}' {
				i++
				break
			}
			return errFallback
		}
	}
	if skipSpace(data, i) != len(data) {
		return errFallback // trailing bytes: let the stdlib judge them
	}
	return nil
}

func decodeRequestFast(data []byte, req *Request) error {
	return objectShell(data, func(key []byte, i int) (int, error) {
		switch string(key) { // compiled to a jump, no allocation
		case "op":
			return fastStringValue(data, i, &req.Op)
		case "diner":
			return fastIntValue(data, i, &req.Diner)
		case "id":
			return fastStringValue(data, i, &req.ID)
		}
		return 0, errFallback
	})
}

func decodeEventFast(data []byte, ev *Event) error {
	return objectShell(data, func(key []byte, i int) (int, error) {
		switch string(key) {
		case "ev":
			return fastStringValue(data, i, &ev.Ev)
		case "diner":
			return fastIntValue(data, i, &ev.Diner)
		case "id":
			return fastStringValue(data, i, &ev.ID)
		case "of":
			return fastIntValue(data, i, &ev.Of)
		case "peer":
			return fastIntValue(data, i, &ev.Peer)
		case "suspect":
			return fastBoolValue(data, i, &ev.Suspect)
		case "diners":
			return fastIntValue(data, i, &ev.Diners)
		case "tables":
			return fastIntValue(data, i, &ev.Tables)
		case "t":
			return fastInt64Value(data, i, &ev.T)
		case "msg":
			return fastStringValue(data, i, &ev.Msg)
		}
		return 0, errFallback
	})
}

// valueReader pulls one JSON value at a time off a byte stream — the
// streaming half of the codec, replacing json.Decoder on connections. Like
// json.Decoder it does not require newline framing: it scans one balanced
// value (string-aware for objects) and leaves the rest of the stream
// untouched. It scans the bufio window in place; only a value that spans a
// refill is assembled in the reusable scratch buffer.
type valueReader struct {
	br      *bufio.Reader
	scratch []byte
}

func newValueReader(r io.Reader) *valueReader {
	return &valueReader{br: bufio.NewReaderSize(r, 4096)}
}

// next reads the next JSON value. The returned slice — the buffered bytes
// themselves, or the scratch buffer — is valid until the following call.
func (vr *valueReader) next() ([]byte, error) {
	win, err := vr.skipSpace()
	if err != nil {
		return nil, err
	}
	var sc valueScan
	sc.open(win[0])
	n, done := sc.scan(win, 1)
	if done {
		vr.br.Discard(n)
		return win[:n:n], nil
	}
	buf := append(vr.scratch[:0], win[:n]...)
	vr.br.Discard(n)
	for !done {
		if win, err = vr.window(); err != nil {
			vr.scratch = buf
			if sc.scalar && err == io.EOF {
				return buf, nil // a number or literal may end the stream
			}
			return nil, unexpectedEOF(err)
		}
		n, done = sc.scan(win, 0)
		buf = append(buf, win[:n]...)
		vr.br.Discard(n)
	}
	vr.scratch = buf
	return buf, nil
}

// window returns every buffered byte, reading from the stream first when
// none is buffered.
func (vr *valueReader) window() ([]byte, error) {
	if vr.br.Buffered() == 0 {
		if _, err := vr.br.Peek(1); err != nil {
			return nil, err
		}
	}
	return vr.br.Peek(vr.br.Buffered())
}

// skipSpace discards inter-value whitespace and returns the window from the
// value's first byte on.
func (vr *valueReader) skipSpace() ([]byte, error) {
	for {
		win, err := vr.window()
		if err != nil {
			return nil, err
		}
		i := 0
		for i < len(win) && isJSONSpace(win[i]) {
			i++
		}
		vr.br.Discard(i)
		if i < len(win) {
			return win[i:], nil
		}
	}
}

// valueScan is the framing state of one value as its bytes go by: the
// bracket depth, whether the scan is inside a string or just past a
// backslash in one, and whether the value is a scalar — a number or a
// literal, which has no closing byte.
type valueScan struct {
	depth              int
	inStr, esc, scalar bool
	lit                string // what is left to match of null, true or false
}

// open sets the state from the value's first byte.
func (sc *valueScan) open(b byte) {
	switch b {
	case '{', '[':
		sc.depth = 1
	case '"':
		sc.inStr = true
	case 'n':
		sc.scalar, sc.lit = true, "ull"
	case 't':
		sc.scalar, sc.lit = true, "rue"
	case 'f':
		sc.scalar, sc.lit = true, "alse"
	default:
		sc.scalar = true
	}
}

// scan advances over win from i and returns how many of win's bytes belong
// to the value, and whether the value ended within them.
func (sc *valueScan) scan(win []byte, i int) (int, bool) {
	if sc.lit != "" {
		// A literal ends after its last letter, where json.Decoder ends it
		// (`null{…}` is two values), or before the first byte that breaks
		// it, leaving a prefix no decoder accepts.
		for ; i < len(win); i++ {
			if win[i] != sc.lit[0] {
				return i, true
			}
			if sc.lit = sc.lit[1:]; sc.lit == "" {
				return i + 1, true
			}
		}
		return i, false
	}
	if sc.scalar {
		// Any other scalar fails to decode into a message, whatever its
		// extent: run it to a delimiter.
		for ; i < len(win); i++ {
			if c := win[i]; isJSONSpace(c) || c == ',' || c == '}' || c == ']' {
				return i, true
			}
		}
		return i, false
	}
	for ; i < len(win); i++ {
		c := win[i]
		switch {
		case sc.esc:
			sc.esc = false
		case sc.inStr:
			if c == '\\' {
				sc.esc = true
			} else if c == '"' {
				if sc.inStr = false; sc.depth == 0 {
					return i + 1, true
				}
			}
		case c == '"':
			sc.inStr = true
		case c == '{' || c == '[':
			sc.depth++
		case c == '}' || c == ']':
			if sc.depth--; sc.depth == 0 {
				return i + 1, true
			}
		}
	}
	return i, false
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// RequestReader decodes a stream of client requests, replacing
// json.Decoder on the server's read side.
type RequestReader struct{ vr *valueReader }

// NewRequestReader wraps r (typically a net.Conn) in a buffered request
// decoder.
func NewRequestReader(r io.Reader) *RequestReader {
	return &RequestReader{vr: newValueReader(r)}
}

// Read decodes the next request into req. req is not zeroed first; pass a
// fresh value per message (as json.Decoder callers already do).
func (rr *RequestReader) Read(req *Request) error {
	data, err := rr.vr.next()
	if err != nil {
		return err
	}
	return DecodeRequest(data, req)
}

// EventReader decodes a stream of server events, replacing json.Decoder on
// the client's read side.
type EventReader struct{ vr *valueReader }

// NewEventReader wraps r (typically a net.Conn) in a buffered event
// decoder.
func NewEventReader(r io.Reader) *EventReader {
	return &EventReader{vr: newValueReader(r)}
}

// Read decodes the next event into ev. ev is not zeroed first; pass a fresh
// value per message.
func (er *EventReader) Read(ev *Event) error {
	data, err := er.vr.next()
	if err != nil {
		return err
	}
	return DecodeEvent(data, ev)
}
