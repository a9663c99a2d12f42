package oasis

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// codecRoundTrip pushes one payload through the bus's binary
// encode/decode pair and returns the reconstructed value.
func codecRoundTrip(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	e := bus.NewWireEnc(&buf)
	if err := bus.EncodePayload(e, v); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := bus.DecodePayload(bus.NewWireDec(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return got
}

// TestBinaryPayloadRoundTrips round-trips the payload types of
// gettypes, validate and resync through the hand-rolled binary codec.
func TestBinaryPayloadRoundTrips(t *testing.T) {
	RegisterWireTypes()

	client := ids.ClientID{Host: "wombat", ID: 17, BootTime: time.Unix(500, 0)}
	args := []value.Value{value.Str("alice"), value.Int(7), value.MustSet("rwx", "rw")}
	rmc := &cert.RMC{
		Service:  "Doc",
		Rolefile: "doc.rdl",
		Roles:    cert.RoleSet(0b1010),
		Args:     args,
		Client:   client,
		CRR:      credrec.Ref{Index: 3, Magic: 99},
		Expiry:   time.Unix(9000, 0),
		Sig:      []byte("sig-bytes"),
	}
	sameRMC := func(t *testing.T, got, want *cert.RMC) {
		t.Helper()
		if got.Service != want.Service || got.Rolefile != want.Rolefile ||
			got.Roles != want.Roles || got.Client != want.Client ||
			got.CRR != want.CRR || !got.Expiry.Equal(want.Expiry) ||
			!bytes.Equal(got.Sig, want.Sig) || !reflect.DeepEqual(got.Args, want.Args) {
			t.Fatalf("RMC changed in transit:\n got %+v\nwant %+v", got, want)
		}
	}

	t.Run("GetTypesArg", func(t *testing.T) {
		in := GetTypesArg{Rolefile: "doc.rdl", Role: "reader"}
		if got := codecRoundTrip(t, in); got != in {
			t.Fatalf("got %+v, want %+v", got, in)
		}
	})

	t.Run("ValidateArg", func(t *testing.T) {
		in := ValidateArg{Cert: rmc, Client: client, Watch: true}
		got, ok := codecRoundTrip(t, in).(ValidateArg)
		if !ok {
			t.Fatal("wrong type back")
		}
		if got.Client != in.Client || got.Watch != in.Watch || got.Cert == nil {
			t.Fatalf("got %+v", got)
		}
		sameRMC(t, got.Cert, rmc)
	})

	t.Run("ValidateArgNilCert", func(t *testing.T) {
		in := ValidateArg{Client: client}
		got, ok := codecRoundTrip(t, in).(ValidateArg)
		if !ok || got.Cert != nil || got.Client != in.Client || got.Watch {
			t.Fatalf("got %+v", got)
		}
	})

	t.Run("ValidateReply", func(t *testing.T) {
		in := ValidateReply{
			Roles: []string{"reader", "writer"},
			Types: []value.Type{value.StringType, value.IntType, value.SetType("rwx")},
			State: credrec.True,
			RegID: 41,
		}
		got := codecRoundTrip(t, in)
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v, want %+v", got, in)
		}
	})

	t.Run("ResyncArg", func(t *testing.T) {
		in := ResyncArg{Refs: []credrec.Ref{{Index: 1, Magic: 2}, {Index: 3, Magic: 4}}}
		if got := codecRoundTrip(t, in); !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v, want %+v", got, in)
		}
		empty := ResyncArg{}
		if got := codecRoundTrip(t, empty); !reflect.DeepEqual(got, empty) {
			t.Fatalf("empty: got %+v", got)
		}
	})

	t.Run("ResyncReply", func(t *testing.T) {
		in := ResyncReply{
			Session: 77,
			Seq:     12,
			Entries: []credrec.Change{
				{Ref: credrec.Ref{Index: 1, Magic: 9}, State: credrec.True, Permanent: false},
				{Ref: credrec.Ref{Index: 2, Magic: 8}, State: credrec.False, Permanent: true},
			},
		}
		if got := codecRoundTrip(t, in); !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v, want %+v", got, in)
		}
	})

	t.Run("Types", func(t *testing.T) {
		in := []value.Type{value.IntType, value.ObjectType("Doc.read")}
		if got := codecRoundTrip(t, in); !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v, want %+v", got, in)
		}
	})

}

// TestBinaryRMCSignatureSurvivesTransit ensures a certificate decoded
// off the wire — inside a ValidateArg, the one payload that carries one
// — still verifies: the binary codec must reproduce exactly the
// canonical bytes that were signed.
func TestBinaryRMCSignatureSurvivesTransit(t *testing.T) {
	RegisterWireTypes()
	signer := cert.NewHMACSigner([]byte("transit-key"), 32)
	c := &cert.RMC{
		Service:  "Doc",
		Rolefile: "doc.rdl",
		Roles:    cert.RoleSet(1),
		Args:     []value.Value{value.Str("alice")},
		Client:   ids.ClientID{Host: "h", ID: 1, BootTime: time.Unix(10, 0)},
		CRR:      credrec.Ref{Index: 1, Magic: 7},
	}
	c.Sign(signer)
	arg, ok := codecRoundTrip(t, ValidateArg{Cert: c, Client: c.Client}).(ValidateArg)
	if !ok || arg.Cert == nil {
		t.Fatal("wrong type back")
	}
	got := arg.Cert
	if !got.Verify(signer) {
		t.Fatal("decoded certificate no longer verifies")
	}
	got.Roles = cert.RoleSet(3)
	if got.Verify(signer) {
		t.Fatal("tampered decoded certificate verified")
	}
}

// retiredTags is one payload per retired tag, as the last encoders that
// wrote them did (commit 5d93d8f; 56a0323 for tag 13, f2d4f9c for tag
// 14): tag byte, then body.
var retiredTags = []struct {
	tag      byte
	was, hex string
}{
	{4, "readstate's argument", "04fb8080808001"},
	{7, "*cert.RMC", "0703446f6307646f632e72646c0a030205616c696365010e03037277780306776f6d6261741101e80700e38080803001d08c0100097369672d6279746573"},
	{8, "*cert.Delegation", "0803446f6307646f632e72646c07636f7572696572010203626f6201054c6f67696e096c6f67696e2e72646c0475736572010203626f62b78080805001807dfa010964656c65672d736967"},
	{9, "*cert.Revocation, revoke's argument", "0903446f63ac80808040c280808060077265762d736967"},
	{10, "credrec.State, readstate's reply", "0a06"},
	{12, "value.Value", "0c0408446f632e7265616405616c696365"},
	{13, "ShardWatchArg, a ring member's subscription argument", "0d02e380808030878080808080808008"},
	{14, "TreeForwardArg, a ring member's backlog claim", "0e0673686172644206736861726442000e"},
}

// retiredTagPayloads decodes retiredTags' hex, keyed by tag.
func retiredTagPayloads(t testing.TB) map[byte][]byte {
	t.Helper()
	out := make(map[byte][]byte)
	for _, r := range retiredTags {
		b, err := hex.DecodeString(r.hex)
		if err != nil || b[0] != r.tag {
			t.Fatalf("retired tag %d (%s): bad vector %q (%v)", r.tag, r.was, r.hex, err)
		}
		out[r.tag] = b
	}
	return out
}

// TestWireTagTable is the number registry of the peer protocol's
// payload tags: every number ever allocated is either live, and then the
// named type encodes under it, or retired, and then the decoder refuses
// it. A tag put back into service under any type fails here, and so
// does a new one that was not added to the table.
func TestWireTagTable(t *testing.T) {
	RegisterWireTypes()
	retired := retiredTagPayloads(t)
	table := []any{ // index + 1 is the tag; nil is a retired number
		GetTypesArg{}, ValidateArg{}, ValidateReply{}, nil, ResyncArg{}, ResyncReply{}, nil,
		nil, nil, nil, []value.Type{}, nil, nil, nil,
	}
	decode := func(b []byte) error {
		_, err := bus.DecodePayload(bus.NewWireDec(bytes.NewReader(b)))
		return err
	}
	for tag := 1; tag < 255; tag++ {
		var live any
		if tag <= len(table) {
			live = table[tag-1]
		}
		if live != nil {
			var buf bytes.Buffer
			if err := bus.EncodePayload(bus.NewWireEnc(&buf), live); err != nil {
				t.Fatalf("live tag %d: %v", tag, err)
			}
			if buf.Bytes()[0] != byte(tag) {
				t.Errorf("%T encodes under tag %d, the table says %d", live, buf.Bytes()[0], tag)
			}
			if _, gone := retired[byte(tag)]; gone {
				t.Errorf("tag %d is both live and retired", tag)
			}
			continue
		}
		frame := []byte{byte(tag)}
		if tag <= len(table) {
			if frame = retired[byte(tag)]; frame == nil {
				t.Fatalf("retired tag %d has no vector", tag)
			}
		}
		if err := decode(frame); err == nil || !strings.Contains(err.Error(), "unknown wire payload tag") {
			t.Errorf("tag %d is neither live nor refused: %v", tag, err)
		}
	}
}

// TestRetiredTagCallFramesRefused sends a served peer port one call
// frame per retired tag — the operation each used to ride on, or
// validate for the three no operation took — and requires the answer an
// undecodable frame gets: the connection closed, nothing written, the
// port still serving.
func TestRetiredTagCallFramesRefused(t *testing.T) {
	RegisterWireTypes()
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	loginNet := bus.NewNetwork(clk)
	login, err := New("Login", clk, loginNet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = loginNet.ServeTCP(ln) }()
	defer ln.Close()

	const hello = "OASIS1 bin\n"
	ops := map[byte]string{4: retiredOps[0], 9: retiredOps[1], 10: retiredOps[0], 13: retiredOps[2], 14: retiredOps[3]}
	for tag, payload := range retiredTagPayloads(t) {
		op := ops[tag]
		if op == "" {
			op = "validate"
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		frame := append([]byte(hello), retiredCallFrame(op, payload)...)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		rest, err := io.ReadAll(conn)
		if err != nil || string(rest) != hello {
			t.Errorf("tag %d on %q: port answered %q, %v; want its hello and a closed connection", tag, op, rest, err)
		}
		conn.Close()
	}

	probe := bus.NewNetwork(clk)
	if err := probe.AddRemote("Login", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer probe.CloseRemotes()
	if _, err := probe.Call("Probe", "Login", "gettypes", GetTypesArg{Rolefile: "main", Role: "LoggedOn"}); err != nil {
		t.Fatalf("peer port after the refused frames: %v", err)
	}
}

// retiredCallFrame is a call frame as internal/bus frames one: kind 1,
// sequence number, caller, callee, operation, payload.
func retiredCallFrame(op string, payload []byte) []byte {
	frame := []byte{1, 1, 5, 'G', 'u', 'e', 's', 't', 5, 'L', 'o', 'g', 'i', 'n', byte(len(op))}
	return append(append(frame, op...), payload...)
}
