package bus_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// fuzzEncode renders a message with the binary codec, failing the test
// on encoder errors (all fuzz inputs that reach it are already-decoded,
// hence encodable, messages).
func fuzzEncode(t testing.TB, m *bus.WireMsg) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := bus.NewWireEnc(&buf)
	if err := bus.EncodeMsg(e, m); err != nil {
		t.Fatalf("re-encode of decoded message failed: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeFresh decodes b on a decoder of its own.
func decodeFresh(b []byte) (bus.WireMsg, error) {
	var m bus.WireMsg
	err := bus.DecodeMsg(bus.NewWireDec(bytes.NewReader(b)), &m)
	return m, err
}

// sameDecode fails the test unless a decode gave what the whole-slice
// decode gave: an equal message, or an equal rejection.
func sameDecode(t *testing.T, how string, want bus.WireMsg, wantErr error, got bus.WireMsg, err error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: decode error %v, whole slice %v", how, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, whole slice %+v", how, got, want)
	}
}

// validateCall frames a validate call to Login, as a watcher sends one,
// of a certificate with the given arguments and signature.
func validateCall(t testing.TB, args []value.Value, sig []byte, client ids.ClientID, watch bool) []byte {
	t.Helper()
	c := &cert.RMC{
		Service: "Login", Rolefile: "main", Roles: 3, Args: args,
		Client: client, CRR: credrec.Ref{Index: 4096, Magic: 7},
		Expiry: time.Unix(852076800, 5), Sig: sig,
	}
	m := bus.WireMsg{Kind: "call", Seq: 9, From: "Conf", To: "Login", Op: "validate",
		Arg: oasis.ValidateArg{Cert: c, Client: client, Watch: watch}}
	return fuzzEncode(t, &m)
}

// FuzzWireMsgDecode feeds arbitrary bytes to the wire-message decoder.
// The decoder must never panic, and chunking cannot change a decode:
// the bytes read one at a time, in halves, and twice over on one
// decoder give the whole slice's message or rejection (sameDecode).
// When it accepts an input, the decoded message must survive a
// re-encode → re-decode cycle and the re-encoding must be byte-stable.
//
// A served connection's decoder (bus.ServedFrames, with Login's op
// table behind it) decodes the input and then a second frame, a
// validate of a one-argument certificate: the first message, unless
// its block went back to the connection, still holds what a decoder of
// its own gives, and the second holds exactly its own frame — no
// argument, signature byte, client or watch flag of the first survives
// in a reused block.
func FuzzWireMsgDecode(f *testing.F) {
	bus.TestPayloads(f)
	oasis.RegisterWireTypes()
	clk := clock.NewVirtual(time.Unix(0, 0))
	served := bus.NewNetwork(clk)
	if _, err := oasis.New("Login", clk, served, oasis.Options{}); err != nil {
		f.Fatal(err)
	}
	host := ids.ClientID{Host: "far", ID: 2, BootTime: time.Unix(852076800, 0)}
	second := validateCall(f, []value.Value{value.Object("Login.userid", "ann")}, []byte{1, 2, 3}, ids.ClientID{Host: "b", ID: 1}, false)

	seed := func(m bus.WireMsg) {
		f.Add(fuzzEncode(f, &m))
	}
	seedRaw := func(b []byte) { f.Add(b) }
	seed(bus.WireMsg{Kind: "call", Seq: 1, From: "a", To: "b", Op: "echo", Arg: bus.TestPayloadA{Name: "n", Count: -3}})
	seed(bus.WireMsg{Kind: "call", Seq: 7, From: "x", To: "y", Op: "validate", Arg: bus.TestPayloadA{}})
	seed(bus.WireMsg{Kind: "reply", Seq: 1, Arg: bus.TestPayloadA{Name: "ok", Count: 9000}})
	seed(bus.WireMsg{Kind: "reply", Seq: 2, Err: "bus: boom", IsNil: true})
	seed(bus.WireMsg{Kind: "notify", From: "svc", To: "watcher", Note: event.Notification{
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
	call := []byte{bus.WireKindCall, 1, 1, 'a', 1, 'b', 2, 'o', 'p'}
	seedRaw(append(slices.Clip(call), 255, 3, 'x', 'y', 'z'))
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
		seedRaw(append(slices.Clip(call), b...))
	}
	// Validates a served connection answers from its block: three
	// arguments and a full signature before the one-argument second
	// frame; none and five (past the block's room); a certificate-less
	// one; the second frame itself.
	three := []value.Value{value.Object("Login.userid", "jmb"), value.Object("Login.host", "far"), value.Int(42)}
	seedRaw(validateCall(f, three, bytes.Repeat([]byte{0xa5}, 32), host, true))
	seedRaw(validateCall(f, nil, nil, host, true))
	seedRaw(validateCall(f, append(slices.Clip(three), value.Str("x"), value.Str("y")), bytes.Repeat([]byte{7}, 40), host, false))
	seed(bus.WireMsg{Kind: "call", Seq: 3, From: "Conf", To: "Login", Op: "validate", Arg: oasis.ValidateArg{Client: host, Watch: true}})
	seedRaw(second)

	f.Fuzz(func(t *testing.T, data []byte) {
		var m bus.WireMsg
		rd := bytes.NewReader(data)
		d := bus.NewWireDec(rd)
		err := bus.DecodeMsg(d, &m)
		// How the bytes arrive cannot change the decode: a byte at a
		// time, or half of what each read asks for, they decode to the
		// same message or the same rejection.
		for name, r := range map[string]io.Reader{
			"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
			"half":     iotest.HalfReader(bytes.NewReader(data)),
		} {
			var mc bus.WireMsg
			sameDecode(t, name, m, err, mc, bus.DecodeMsg(bus.NewWireDec(r), &mc))
		}
		// Two copies back to back on one decoder: the first decodes as
		// the input alone did, unless that ran out of bytes (the copy
		// then supplies them); if the frame was the whole input, the
		// second decodes the same, through the decoder's string table.
		whole := err == nil && d.Buffered() == 0 && rd.Len() == 0
		if err == nil || (err != io.EOF && err != io.ErrUnexpectedEOF) {
			d2 := bus.NewWireDec(bytes.NewReader(append(slices.Clip(data), data...)))
			var first bus.WireMsg
			sameDecode(t, "first of two", m, err, first, bus.DecodeMsg(d2, &first))
			if whole {
				var second bus.WireMsg
				sameDecode(t, "second of two", m, err, second, bus.DecodeMsg(d2, &second))
			}
		}
		// On a served connection's decoder, whether the loop keeps the
		// first frame's block for the next call or the block leaves with
		// the first message. A rejection is the same rejection.
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			frames := served.ServedFrames(bytes.NewReader(append(slices.Clip(data), second...)))
			var first bus.WireMsg
			sameDecode(t, "served", m, err, first, frames.Next(&first))
		}
		if whole {
			want2, err := decodeFresh(second)
			if err != nil {
				t.Fatal(err)
			}
			for _, keep := range []bool{false, true} {
				frames := served.ServedFrames(bytes.NewReader(append(slices.Clip(data), second...)))
				var first, next bus.WireMsg
				err := frames.Next(&first)
				sameDecode(t, "served", m, nil, bus.Owned(&first), err)
				if keep {
					frames.Keep(&first)
				}
				err = frames.Next(&next)
				sameDecode(t, "served after "+m.Kind, want2, nil, bus.Owned(&next), err)
				if !keep {
					sameDecode(t, "served, once the next frame is decoded", m, nil, bus.Owned(&first), nil)
				}
			}
		}
		if err != nil {
			return // rejected input
		}
		enc1 := fuzzEncode(t, &m)
		m2, err := decodeFresh(enc1)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v\nmsg: %+v", err, m)
		}
		enc2 := fuzzEncode(t, &m2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not byte-stable:\n first: %x\nsecond: %x", enc1, enc2)
		}
	})
}
