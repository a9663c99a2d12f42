package bus

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"oasis/internal/event"
	"oasis/internal/value"
)

// fuzzEncode renders a message with the binary codec, failing the test
// on encoder errors (all fuzz inputs that reach it are already-decoded,
// hence encodable, messages).
func fuzzEncode(t testing.TB, m *wireMsg) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewWireEnc(&buf)
	if err := encodeWireMsg(e, m); err != nil {
		t.Fatalf("re-encode of decoded message failed: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWireMsgDecode feeds arbitrary bytes to the wire-message decoder.
// The decoder must never panic; when it accepts an input, the decoded
// message must survive a re-encode → re-decode cycle and the
// re-encoding must be byte-stable.
func FuzzWireMsgDecode(f *testing.F) {
	testPayloads(f)
	seed := func(m wireMsg) {
		f.Add(fuzzEncode(f, &m))
	}
	seedRaw := func(b []byte) { f.Add(b) }
	seed(wireMsg{Kind: "call", Seq: 1, From: "a", To: "b", Op: "echo", Arg: testPayloadA{Name: "n", Count: -3}})
	seed(wireMsg{Kind: "call", Seq: 7, From: "x", To: "y", Op: "validate", Arg: testPayloadA{}})
	seed(wireMsg{Kind: "reply", Seq: 1, Arg: testPayloadA{Name: "ok", Count: 9000}})
	seed(wireMsg{Kind: "reply", Seq: 2, Err: "bus: boom", IsNil: true})
	seed(wireMsg{Kind: "notify", From: "svc", To: "watcher", Note: event.Notification{
		Source:    "svc",
		SessionID: 42,
		Seq:       3,
		Heartbeat: true,
		RegID:     5,
		Coalesced: 2,
		Horizon:   time.Unix(2000, 0),
		Event: event.Event{
			Name:   "Modified",
			Source: "svc",
			Seq:    3,
			Time:   time.Unix(1000, 500),
			Args:   []value.Value{value.Str("ref"), value.Int(0)},
		},
	}})
	seedRaw([]byte{0xff})
	seedRaw([]byte{})
	// The reserved payload tag 255 with a blob-shaped tail.
	seedRaw([]byte{wireKindCall, 1, 1, 'a', 1, 'b', 2, 'o', 'p', 255, 3, 'x', 'y', 'z'})
	// Call frames under the six payload tags internal/oasis has retired
	// (4, 7, 8, 9, 10, 12), bodies as their last encoders wrote them: no
	// codec answers to those numbers, here or in a daemon.
	for _, payload := range []string{
		"04fb8080808001",
		"0703446f6307646f632e72646c0a030205616c696365010e03037277780306776f6d6261741101e80700e38080803001d08c0100097369672d6279746573",
		"0803446f6307646f632e72646c07636f7572696572010203626f6201054c6f67696e096c6f67696e2e72646c0475736572010203626f62b78080805001807dfa010964656c65672d736967",
		"0903446f63ac80808040c280808060077265762d736967",
		"0a06",
		"0c0408446f632e7265616405616c696365",
	} {
		b, err := hex.DecodeString(payload)
		if err != nil {
			f.Fatal(err)
		}
		seedRaw(append([]byte{wireKindCall, 1, 1, 'a', 1, 'b', 2, 'o', 'p'}, b...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var m wireMsg
		d := NewWireDec(bytes.NewReader(data))
		if err := decodeWireMsg(d, &m); err != nil {
			return // rejected input; only panics are bugs here
		}
		enc1 := fuzzEncode(t, &m)
		var m2 wireMsg
		if err := decodeWireMsg(NewWireDec(bytes.NewReader(enc1)), &m2); err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v\nmsg: %+v", err, m)
		}
		enc2 := fuzzEncode(t, &m2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not byte-stable:\n first: %x\nsecond: %x", enc1, enc2)
		}
	})
}
