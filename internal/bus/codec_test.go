package bus

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"oasis/internal/event"
	"oasis/internal/value"
)

// Test payload types for the registry. Tags from 200 up so they can
// never collide with protocol tags allocated by owning packages.
type testPayloadA struct {
	Name  string
	Count int64
}

type testPayloadUnregistered struct{ X int }

var registerTestPayloads sync.Once

func testPayloads(t testing.TB) {
	t.Helper()
	registerTestPayloads.Do(func() {
		RegisterWirePayload(200, testPayloadA{},
			func(e *WireEnc, v any) error {
				a, ok := v.(testPayloadA)
				if !ok {
					return fmt.Errorf("not testPayloadA: %T", v)
				}
				e.PutString(a.Name)
				e.PutVarint(a.Count)
				return nil
			},
			func(d *WireDec) (any, error) {
				var a testPayloadA
				var err error
				if a.Name, err = d.String(); err != nil {
					return nil, err
				}
				if a.Count, err = d.Varint(); err != nil {
					return nil, err
				}
				return a, nil
			})
	})
}

func encodeToBytes(t *testing.T, fn func(*WireEnc)) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewWireEnc(&buf)
	fn(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Golden byte vectors: the binary format is a wire protocol, so its
// exact bytes are pinned. Changing any of these breaks interop with
// every deployed binary-codec peer.
func TestCodecGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		enc  func(*WireEnc)
		want string // hex
	}{
		{"uvarint-0", func(e *WireEnc) { e.PutUvarint(0) }, "00"},
		{"uvarint-300", func(e *WireEnc) { e.PutUvarint(300) }, "ac02"},
		{"varint-neg1", func(e *WireEnc) { e.PutVarint(-1) }, "01"},
		{"varint-1", func(e *WireEnc) { e.PutVarint(1) }, "02"},
		{"bool-true", func(e *WireEnc) { e.PutBool(true) }, "01"},
		{"string-empty", func(e *WireEnc) { e.PutString("") }, "00"},
		{"string-hi", func(e *WireEnc) { e.PutString("hi") }, "026869"},
		{"time-zero", func(e *WireEnc) { e.PutTime(time.Time{}) }, "00"},
		{"time-5000s", func(e *WireEnc) { e.PutTime(time.Unix(5000, 0)) }, "01904e00"},
		{"value-int-7", func(e *WireEnc) { e.PutValue(value.Int(7)) }, "010e"},
		{"value-str-a", func(e *WireEnc) { e.PutValue(value.Str("a")) }, "020161"},
		{"value-set-rwx-5", func(e *WireEnc) { e.PutValue(value.Value{T: value.SetType("rwx"), Set: 5}) }, "030372777805"},
		{"value-obj", func(e *WireEnc) { e.PutValue(value.Object("U.id", "dm")) }, "0404552e696402646d"},
		{"value-zero", func(e *WireEnc) { e.PutValue(value.Value{}) }, "00"},
		{"values-2", func(e *WireEnc) { e.PutValues([]value.Value{value.Int(1), value.Int(2)}) }, "02010201 04"},
		{"type-int", func(e *WireEnc) { e.PutType(value.IntType) }, "01"},
		{"type-set", func(e *WireEnc) { e.PutType(value.SetType("rw")) }, "03027277"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := hex.EncodeToString(encodeToBytes(t, tc.enc))
			want := strings.ReplaceAll(tc.want, " ", "")
			if got != want {
				t.Fatalf("bytes = %s, want %s", got, want)
			}
		})
	}
}

func TestCodecPrimitiveRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	e := NewWireEnc(&buf)
	stamp := time.Unix(123456789, 987654321)
	vals := []value.Value{
		value.Int(-42), value.Str("hello, \"world\""), value.MustSet("rwx", "rx"),
		value.Object("Login.userid", "dm"), {},
	}
	types := []value.Type{value.IntType, value.StringType, value.SetType("abc"), value.ObjectType("T.x"), {}}
	e.PutByte(0xAB)
	e.PutUvarint(1<<63 + 17)
	e.PutVarint(-1 << 60)
	e.PutBool(true)
	e.PutBool(false)
	e.PutString("παράδειγμα") // non-ASCII survives
	e.PutBytes([]byte{0, 1, 2, 255})
	e.PutBytes(nil)
	e.PutTime(stamp)
	e.PutTime(time.Time{})
	e.PutValues(vals)
	e.PutTypes(types)
	e.PutStrings([]string{"a", "", "c"})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	d := NewWireDec(bytes.NewReader(buf.Bytes()))
	if b, err := d.Byte(); err != nil || b != 0xAB {
		t.Fatalf("Byte = %x, %v", b, err)
	}
	if u, err := d.Uvarint(); err != nil || u != 1<<63+17 {
		t.Fatalf("Uvarint = %d, %v", u, err)
	}
	if i, err := d.Varint(); err != nil || i != -1<<60 {
		t.Fatalf("Varint = %d, %v", i, err)
	}
	if b, err := d.Bool(); err != nil || !b {
		t.Fatalf("Bool = %v, %v", b, err)
	}
	if b, err := d.Bool(); err != nil || b {
		t.Fatalf("Bool = %v, %v", b, err)
	}
	if s, err := d.String(); err != nil || s != "παράδειγμα" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if b, err := d.Bytes(); err != nil || !bytes.Equal(b, []byte{0, 1, 2, 255}) {
		t.Fatalf("Bytes = %v, %v", b, err)
	}
	if b, err := d.Bytes(); err != nil || b != nil {
		t.Fatalf("empty Bytes = %v, %v", b, err)
	}
	if ts, err := d.Time(); err != nil || !ts.Equal(stamp) {
		t.Fatalf("Time = %v, %v", ts, err)
	}
	if ts, err := d.Time(); err != nil || !ts.IsZero() {
		t.Fatalf("zero Time = %v, %v", ts, err)
	}
	got, err := d.Values()
	if err != nil || len(got) != len(vals) {
		t.Fatalf("Values = %v, %v", got, err)
	}
	for i := range vals {
		// Plain struct equality: Value.Equal rejects the zero Value,
		// which must round-trip too.
		if got[i] != vals[i] {
			t.Fatalf("value %d = %v, want %v", i, got[i], vals[i])
		}
	}
	gotTypes, err := d.Types()
	if err != nil || !reflect.DeepEqual(gotTypes, types) {
		t.Fatalf("Types = %v, %v", gotTypes, err)
	}
	if ss, err := d.Strings(); err != nil || !reflect.DeepEqual(ss, []string{"a", "", "c"}) {
		t.Fatalf("Strings = %v, %v", ss, err)
	}
}

func TestCodecDecoderLimits(t *testing.T) {
	// A length beyond maxWireBytes must be rejected before allocation.
	var buf bytes.Buffer
	e := NewWireEnc(&buf)
	e.PutUvarint(maxWireBytes + 1)
	_ = e.Flush()
	if _, err := NewWireDec(bytes.NewReader(buf.Bytes())).Bytes(); err == nil {
		t.Fatal("oversized byte length accepted")
	}

	buf.Reset()
	e = NewWireEnc(&buf)
	e.PutUvarint(maxWireCount + 1)
	_ = e.Flush()
	if _, err := NewWireDec(bytes.NewReader(buf.Bytes())).Values(); err == nil {
		t.Fatal("oversized count accepted")
	}

	// Bools are strict: 2 is a framing error, not "true".
	if _, err := NewWireDec(bytes.NewReader([]byte{2})).Bool(); err == nil {
		t.Fatal("bool byte 2 accepted")
	}
	// Nanoseconds must stay under a second.
	buf.Reset()
	e = NewWireEnc(&buf)
	e.PutByte(1)
	e.PutVarint(0)
	e.PutUvarint(uint64(time.Second))
	_ = e.Flush()
	if _, err := NewWireDec(bytes.NewReader(buf.Bytes())).Time(); err == nil {
		t.Fatal("overflowing nanoseconds accepted")
	}
}

func roundTripMsg(t *testing.T, m wireMsg) wireMsg {
	t.Helper()
	var buf bytes.Buffer
	e := NewWireEnc(&buf)
	if err := encodeWireMsg(e, &m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	var out wireMsg
	if err := decodeWireMsg(NewWireDec(bytes.NewReader(buf.Bytes())), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestWireMsgRoundTrips(t *testing.T) {
	testPayloads(t)
	call := wireMsg{Kind: "call", Seq: 7, From: "a", To: "b", Op: "echo",
		Arg: testPayloadA{Name: "x", Count: -3}}
	if got := roundTripMsg(t, call); !reflect.DeepEqual(got, call) {
		t.Fatalf("call round trip = %+v, want %+v", got, call)
	}

	reply := wireMsg{Kind: "reply", Seq: 7, Err: "boom", IsNil: false,
		Arg: testPayloadA{Name: "y", Count: 9}}
	if got := roundTripMsg(t, reply); !reflect.DeepEqual(got, reply) {
		t.Fatalf("reply round trip = %+v, want %+v", got, reply)
	}

	nilReply := wireMsg{Kind: "reply", Seq: 8, IsNil: true}
	if got := roundTripMsg(t, nilReply); !reflect.DeepEqual(got, nilReply) {
		t.Fatalf("nil reply round trip = %+v, want %+v", got, nilReply)
	}

	notify := wireMsg{Kind: "notify", From: "a", To: "b", Note: event.Notification{
		Source: "svc", SessionID: 3, Seq: 41, Heartbeat: false, RegID: 12,
		Coalesced: 2, Horizon: time.Unix(99, 5),
		Event: event.Event{Name: "Modified", Source: "svc", Seq: 41,
			Time: time.Unix(98, 0), Args: []value.Value{value.Int(1), value.Str("s")}},
	}}
	got := roundTripMsg(t, notify)
	if got.Kind != "notify" || got.From != "a" || got.To != "b" {
		t.Fatalf("notify header = %+v", got)
	}
	if !reflect.DeepEqual(got.Note, notify.Note) {
		t.Fatalf("notification round trip = %+v, want %+v", got.Note, notify.Note)
	}
}

// A payload nobody registered is an encode error naming the type, and
// nothing of it reaches the stream.
func TestEncodePayloadRejectsUnregistered(t *testing.T) {
	testPayloads(t)
	var buf bytes.Buffer
	err := EncodePayload(NewWireEnc(&buf), testPayloadUnregistered{X: 5})
	if err == nil || !strings.Contains(err.Error(), "testPayloadUnregistered") {
		t.Fatalf("EncodePayload(unregistered) = %v, want an error naming the type", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected payload wrote %d bytes", buf.Len())
	}
}

func TestRegisterWirePayloadPanics(t *testing.T) {
	testPayloads(t)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	nop := func(*WireEnc, any) error { return nil }
	nod := func(*WireDec) (any, error) { return nil, nil }
	mustPanic("reserved tag 0", func() { RegisterWirePayload(0, testPayloadA{}, nop, nod) })
	mustPanic("reserved tag 255", func() { RegisterWirePayload(255, testPayloadA{}, nop, nod) })
	mustPanic("duplicate tag", func() { RegisterWirePayload(200, testPayloadUnregistered{}, nop, nod) })
	mustPanic("duplicate type", func() { RegisterWirePayload(201, testPayloadA{}, nop, nod) })
}

func TestDecodeWireMsgRejectsJunk(t *testing.T) {
	var m wireMsg
	if err := decodeWireMsg(NewWireDec(bytes.NewReader([]byte{9})), &m); err == nil {
		t.Fatal("bad kind byte accepted")
	}
	if err := decodeWireMsg(NewWireDec(bytes.NewReader(nil)), &m); err == nil {
		t.Fatal("empty stream accepted")
	}
	// A call frame whose payload tag is unknown must error, not guess.
	var buf bytes.Buffer
	e := NewWireEnc(&buf)
	e.PutByte(wireKindCall)
	e.PutUvarint(1)
	e.PutString("a")
	e.PutString("b")
	e.PutString("op")
	header := buf.Len()
	// 123 was never registered; 255 is reserved, and a length-prefixed
	// blob after it must not be read as a payload.
	for _, tail := range [][]byte{{123}, {255, 3, 'a', 'b', 'c'}} {
		buf.Truncate(header)
		buf.Write(tail)
		if err := decodeWireMsg(NewWireDec(bytes.NewReader(buf.Bytes())), &m); err == nil {
			t.Fatalf("unknown payload tag %d accepted", tail[0])
		}
	}
}
