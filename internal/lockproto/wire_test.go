package lockproto

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// The codec's contract is byte-compatibility: AppendRequest/AppendEvent
// must produce exactly json.Marshal's bytes, and DecodeRequest/DecodeEvent
// must accept and reject exactly what json.Unmarshal accepts and rejects.
// These tests (and FuzzWireCodecEquivalence) hold both directions to the
// stdlib differentially, so the hand-rolled fast path can never drift from
// the wire format old clients and chaosproxy speak.

func checkRequestCodec(t *testing.T, r Request) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("stdlib marshal: %v", err)
	}
	got := AppendRequest(nil, &r)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendRequest(%+v)\n got %s\nwant %s", r, got, want)
	}
	var back Request
	if err := DecodeRequest(got, &back); err != nil {
		t.Fatalf("DecodeRequest(%s): %v", got, err)
	}
	if back != r {
		t.Fatalf("round trip %+v -> %+v", r, back)
	}
}

func checkEventCodec(t *testing.T, e Event) {
	t.Helper()
	want, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("stdlib marshal: %v", err)
	}
	got := AppendEvent(nil, &e)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendEvent(%+v)\n got %s\nwant %s", e, got, want)
	}
	var back Event
	if err := DecodeEvent(got, &back); err != nil {
		t.Fatalf("DecodeEvent(%s): %v", got, err)
	}
	if back != e {
		t.Fatalf("round trip %+v -> %+v", e, back)
	}
}

// nastyStrings exercises every escaping branch: short escapes, \u00xx
// control bytes, the HTML trio, U+2028/U+2029, multi-byte UTF-8, and
// invalid UTF-8 (which encodes as the literal \ufffd escape).
var nastyStrings = []string{
	"", "plain", "c12-0", `quote"back\slash`, "tab\tnl\ncr\rbs\bff\f",
	"ctl\x00\x01\x1f", "html<&>", "sep\u2028\u2029sep", "héllo wörld",
	"\xff\xfe bad utf8 \xc3", "mixed\x7f\u00e9\t<end>",
}

func TestWireEncodeMatchesStdlib(t *testing.T) {
	checkRequestCodec(t, Request{})
	checkEventCodec(t, Event{})
	for _, s := range nastyStrings {
		// Invalid UTF-8 does not survive a round trip (both codecs encode it
		// as U+FFFD), so only the encode half is compared for those.
		r := Request{Op: s, Diner: 3, ID: s}
		want, _ := json.Marshal(r)
		if got := AppendRequest(nil, &r); !bytes.Equal(got, want) {
			t.Fatalf("AppendRequest(%q)\n got %s\nwant %s", s, got, want)
		}
		e := Event{Ev: s, Msg: s, Diner: -2, T: 1 << 40}
		want, _ = json.Marshal(e)
		if got := AppendEvent(nil, &e); !bytes.Equal(got, want) {
			t.Fatalf("AppendEvent(%q)\n got %s\nwant %s", s, got, want)
		}
	}
	checkRequestCodec(t, Request{Op: OpAcquire, Diner: 4, ID: "ab12-c3-99"})
	checkRequestCodec(t, Request{Op: OpRelease, Diner: -1, ID: "x"})
	checkEventCodec(t, Event{Ev: EvGranted, Diner: 2, ID: "s", T: 12345})
	checkEventCodec(t, Event{Ev: EvSuspect, Of: 1, Peer: 3, Suspect: true, T: -9})
	checkEventCodec(t, Event{Ev: EvInfo, Diners: 5, T: 77})
	checkEventCodec(t, Event{Ev: EvInfo, Diners: 16, Tables: 4, T: 9})
	checkEventCodec(t, Event{Ev: EvError, Diner: 1, ID: "k", Msg: "overloaded"})
}

// TestWireDecodeStdlibQuirks pins the stdlib behaviours the fast path must
// not paper over: case-folded keys, duplicate keys, unknown fields, null,
// escaped strings, floats for int fields, and trailing garbage.
func TestWireDecodeStdlibQuirks(t *testing.T) {
	cases := []string{
		`{"OP":"acquire","DiNeR":2}`,            // case-insensitive match
		`{"op":"a","op":"b"}`,                   // duplicate key: last wins
		`{"op":"a","bogus":{"nested":[1,2]}}`,   // unknown nested field
		`{"op":"\u0061\ud83d\ude00","id":"\t"}`, // escapes
		`{"diner":1.5}`,                         // float into int: error
		`{"diner":1e2}`,                         // exponent into int: error
		`{"diner":null,"op":null,"id":"x"}`,     // null: no-op
		`  {"op":"a"}  `,                        // surrounding whitespace
		`{"op":"a"}junk`,                        // trailing garbage: error
		`{"op":123}`,                            // type mismatch: error
		`{"t":9223372036854775807}`,             // int64 max
		`{"t":9223372036854775808}`,             // int64 overflow: error
		`{"op":"ünïcode"}`,                      // non-ASCII string
		`{}`, `[]`, `null`, `42`, `"str"`, ``, `{`, `{"op"`, `{"op":}`,
	}
	for _, in := range cases {
		var fast, std Request
		fastErr := DecodeRequest([]byte(in), &fast)
		stdErr := json.Unmarshal([]byte(in), &std)
		if (fastErr == nil) != (stdErr == nil) {
			t.Fatalf("decode %q: fast err %v, stdlib err %v", in, fastErr, stdErr)
		}
		if fastErr == nil && fast != std {
			t.Fatalf("decode %q: fast %+v, stdlib %+v", in, fast, std)
		}
		var fe, se Event
		fastErr = DecodeEvent([]byte(in), &fe)
		stdErr = json.Unmarshal([]byte(in), &se)
		if (fastErr == nil) != (stdErr == nil) {
			t.Fatalf("decode event %q: fast err %v, stdlib err %v", in, fastErr, stdErr)
		}
		if fastErr == nil && fe != se {
			t.Fatalf("decode event %q: fast %+v, stdlib %+v", in, fe, se)
		}
	}
}

// TestWireFastPathIsUsed guards the perf property itself: the service's
// actual message shapes must decode without the stdlib bail-out, or the
// zero-alloc claim silently evaporates.
func TestWireFastPathIsUsed(t *testing.T) {
	var req Request
	if err := decodeRequestFast([]byte(`{"op":"acquire","diner":3,"id":"ab-c1-7"}`), &req); err != nil {
		t.Fatalf("fast path bailed on a canonical acquire: %v", err)
	}
	if req.Op != OpAcquire || req.Diner != 3 || req.ID != "ab-c1-7" {
		t.Fatalf("fast path misdecoded: %+v", req)
	}
	var ev Event
	if err := decodeEventFast([]byte(`{"ev":"suspect","of":1,"peer":2,"suspect":true,"t":99}`), &ev); err != nil {
		t.Fatalf("fast path bailed on a canonical suspect event: %v", err)
	}
	if !ev.Suspect || ev.Of != 1 || ev.Peer != 2 || ev.T != 99 {
		t.Fatalf("fast path misdecoded: %+v", ev)
	}
}

// TestWireStreamReader checks the streaming reader against json.Decoder's
// framing: values separated by newlines, by nothing, by runs of whitespace,
// and values whose bytes span the internal buffer.
func TestWireStreamReader(t *testing.T) {
	var src bytes.Buffer
	var want []Request
	enc := json.NewEncoder(&src)
	long := strings.Repeat("x", 9000) // bigger than the 4096-byte bufio buffer
	for i, id := range []string{"a", "b", long, "d"} {
		r := Request{Op: OpAcquire, Diner: i, ID: id}
		want = append(want, r)
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	src.WriteString(`  {"op":"info"}   {"op":"watch"}`) // no newline framing
	want = append(want, Request{Op: OpInfo}, Request{Op: OpWatch})

	rr := NewRequestReader(&src)
	for i, w := range want {
		var got Request
		if err := rr.Read(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != w {
			t.Fatalf("read %d: got %+v want %+v", i, got, w)
		}
	}
	var extra Request
	if err := rr.Read(&extra); err != io.EOF {
		t.Fatalf("expected EOF after last value, got %v", err)
	}
}

// FuzzWireCodecEquivalence is the differential fuzz of the whole codec:
// encode equality on arbitrary field values, and decode equality (same
// accept/reject decision, same decoded struct) on arbitrary input bytes,
// for both message types.
func FuzzWireCodecEquivalence(f *testing.F) {
	f.Add([]byte(`{"op":"acquire","diner":3,"id":"s-1"}`), "acquire", 3, "id-1", "granted", int64(88), "msg")
	f.Add([]byte(`{"ev":"suspect","of":1,"peer":2,"suspect":true}`), "", 0, "", "", int64(0), "")
	f.Add([]byte(`{"OP":"x","bogus":[{"a":1}],"diner":2e3}`), "a\x00b", -1, "\xff", "<&>", int64(-5), "\u2028")
	f.Add([]byte(" {\"op\"\n:\t\"a\" , \"id\" : null } "), "", 1<<30, "dup", "e", int64(1)<<62, "")
	f.Fuzz(func(t *testing.T, raw []byte, op string, diner int, id string, evs string, tt int64, msg string) {
		req := Request{Op: op, Diner: diner, ID: id}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("stdlib rejected a Request: %v", err)
		}
		if got := AppendRequest(nil, &req); !bytes.Equal(got, want) {
			t.Fatalf("encode mismatch:\n got %s\nwant %s", got, want)
		}
		ev := Event{Ev: evs, Diner: diner, ID: id, Of: diner ^ 1, Peer: diner >> 1,
			Suspect: diner&1 == 0, Diners: diner, T: tt, Msg: msg}
		want, err = json.Marshal(ev)
		if err != nil {
			t.Fatalf("stdlib rejected an Event: %v", err)
		}
		if got := AppendEvent(nil, &ev); !bytes.Equal(got, want) {
			t.Fatalf("encode mismatch:\n got %s\nwant %s", got, want)
		}

		var fastReq, stdReq Request
		fastErr := DecodeRequest(raw, &fastReq)
		stdErr := json.Unmarshal(raw, &stdReq)
		if (fastErr == nil) != (stdErr == nil) {
			t.Fatalf("decode %q: fast err %v, stdlib err %v", raw, fastErr, stdErr)
		}
		if fastErr == nil && fastReq != stdReq {
			t.Fatalf("decode %q: fast %+v, stdlib %+v", raw, fastReq, stdReq)
		}
		var fastEv, stdEv Event
		fastErr = DecodeEvent(raw, &fastEv)
		stdErr = json.Unmarshal(raw, &stdEv)
		if (fastErr == nil) != (stdErr == nil) {
			t.Fatalf("decode event %q: fast err %v, stdlib err %v", raw, fastErr, stdErr)
		}
		if fastErr == nil && fastEv != stdEv {
			t.Fatalf("decode event %q: fast %+v, stdlib %+v", raw, fastEv, stdEv)
		}
	})
}

// Benchmark pairs: the hand-rolled codec vs the encoding/json baseline on
// the protocol's hottest messages. BENCH_serve.json records both, so the
// allocs/op reduction is part of the tracked perf trajectory.

var benchEvent = Event{Ev: EvGranted, Diner: 3, ID: "a1b2c3-c12-345", T: 123456}
var benchReqLine = []byte(`{"op":"acquire","diner":3,"id":"a1b2c3-c12-345"}`)
var benchEvLine = []byte(`{"ev":"granted","diner":3,"id":"a1b2c3-c12-345","t":123456}`)

func BenchmarkWireEncodeEvent(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendEvent(buf[:0], &benchEvent)
	}
}

func BenchmarkWireEncodeEventJSON(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(benchEvent); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeRequest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req Request
		if err := DecodeRequest(benchReqLine, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeRequestJSON(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req Request
		if err := json.Unmarshal(benchReqLine, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeEvent(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ev Event
		if err := DecodeEvent(benchEvLine, &ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeEventJSON(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ev Event
		if err := json.Unmarshal(benchEvLine, &ev); err != nil {
			b.Fatal(err)
		}
	}
}
