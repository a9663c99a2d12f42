package oasis

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// Round-trips, golden vectors and a decoder fuzzer for the shard ring's
// payload (wire tag 14), and golden vectors for every other live tag
// (1, 2, 3, 5, 6, 11). The golden vectors pin the exact byte layout:
// the tags are append-only protocol constants, so any encoder change
// that shifts these bytes is a protocol break, not a refactor. Two
// vectors are what retired encoders wrote — tag 13, and tag 14 with
// record edges — and must now be refused.

func shardWirePayloads() []any {
	return []any{
		TreeForwardArg{Origin: "shardA", Root: "shardA", Pressure: 42},
		TreeForwardArg{Origin: "shardB", Root: "shardB", Pressure: 7},
		TreeForwardArg{},
	}
}

// edgedTreeForward is a tag-14 frame as the last encoder with an edge
// list wrote it: origin and root shardA, two edges, pressure 42.
const edgedTreeForward = "0e067368617264410673686172644102e3808080300400818080809001020154"

// goldenRMC is the certificate inside the ValidateArg golden vector.
func goldenRMC() *cert.RMC {
	return &cert.RMC{
		Service:  "Doc",
		Rolefile: "doc.rdl",
		Roles:    cert.RoleSet(0b1010),
		Args:     []value.Value{value.Str("alice"), value.Int(7), value.MustSet("rwx", "rw")},
		Client:   ids.ClientID{Host: "wombat", ID: 17, BootTime: time.Unix(500, 0)},
		CRR:      credrec.Ref{Index: 3, Magic: 99},
		Expiry:   time.Unix(9000, 0),
		Sig:      []byte("sig-bytes"),
	}
}

func TestShardPayloadRoundTrips(t *testing.T) {
	RegisterWireTypes()
	for _, in := range shardWirePayloads() {
		if got := codecRoundTrip(t, in); !reflect.DeepEqual(got, in) {
			t.Fatalf("round trip changed %T:\n got %+v\nwant %+v", in, got, in)
		}
	}
}

func TestShardPayloadGoldenVectors(t *testing.T) {
	RegisterWireTypes()
	vectors := []struct {
		name string
		in   any
		hex  string
	}{
		// Refused: nil in marks bytes a retired encoder wrote.
		{"ShardWatchArg", nil, "0d02e380808030878080808080808008"},
		{"TreeForwardArg", nil, edgedTreeForward},
		{"TreeForwardHeartbeat", shardWirePayloads()[1], "0e0673686172644206736861726442000e"},
		// These bytes were taken from the per-tag encoders that the list
		// codecs of tags 5 and 6 replaced.
		{"ResyncArg", ResyncArg{Refs: []credrec.Ref{{Index: 3, Magic: 99}, {Index: 1 << 27, Magic: 7}}},
			"0502e380808030878080808080808008"},
		{"ResyncReply", ResyncReply{Session: 5, Seq: 300, Entries: []ResyncEntry{
			{Ref: credrec.Ref{Index: 3, Magic: 99}, State: credrec.True},
			{Ref: credrec.Ref{Index: 9, Magic: 1}, State: credrec.False, Permanent: true},
		}}, "0605ac0202e38080803004008180808090010201"},
		// Tags 1, 2, 3 and 11 — gettypes and validate, the rest of what
		// the peer port decodes or answers with — had round-trip tests
		// and no golden bytes; these were written by the encoders of
		// commit 5d93d8f, before the retired tags left the registry.
		{"GetTypesArg", GetTypesArg{Rolefile: "doc.rdl", Role: "reader"}, "0107646f632e72646c06726561646572"},
		{"ValidateArg", ValidateArg{Cert: goldenRMC(), Client: goldenRMC().Client, Watch: true},
			"020103446f6307646f632e72646c0a030205616c696365010e03037277780306776f6d6261741101e80700e38080803001d08c0100097369672d627974657306776f6d6261741101e8070001"},
		{"ValidateArgNilCert", ValidateArg{Client: goldenRMC().Client}, "020006776f6d6261741101e8070000"},
		{"ValidateReply", ValidateReply{
			Roles: []string{"reader", "writer"},
			Types: []value.Type{value.StringType, value.IntType, value.SetType("rwx")},
			State: credrec.True,
			RegID: 41,
		}, "0302067265616465720677726974657203020103037277780429"},
		{"Types", []value.Type{value.IntType, value.ObjectType("Doc.read")}, "0b02010408446f632e72656164"},
	}
	for _, v := range vectors {
		t.Run(v.name, func(t *testing.T) {
			if v.in == nil {
				b, err := hex.DecodeString(v.hex)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := bus.DecodePayload(bus.NewWireDec(bytes.NewReader(b))); err == nil {
					t.Fatalf("retired bytes decoded to %+v, want a refusal", got)
				}
				return
			}
			var buf bytes.Buffer
			e := bus.NewWireEnc(&buf)
			if err := bus.EncodePayload(e, v.in); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(buf.Bytes()); got != v.hex {
				t.Fatalf("encoding drifted (protocol break):\n got %s\nwant %s", got, v.hex)
			}
			want, err := hex.DecodeString(v.hex)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bus.DecodePayload(bus.NewWireDec(bytes.NewReader(want)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, v.in) {
				t.Fatalf("golden bytes decoded to %+v, want %+v", got, v.in)
			}
		})
	}
}

// FuzzShardPayloadDecode hammers the tag-14 decoder with mutated
// bytes: it must reject garbage with an error, never panic, and any
// accepted input must survive a re-encode/re-decode cycle unchanged.
// (Byte-identity is deliberately not required: varints admit redundant
// encodings, which decode fine but re-encode minimally.)
func FuzzShardPayloadDecode(f *testing.F) {
	RegisterWireTypes()
	for _, in := range shardWirePayloads() {
		var buf bytes.Buffer
		e := bus.NewWireEnc(&buf)
		if err := bus.EncodePayload(e, in); err != nil {
			f.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// What the retired tags' last encoders wrote: refused at the tag
	// byte today, and mutation fodder for the live decoders.
	retired := retiredTagPayloads(f)
	for _, r := range retiredTags {
		f.Add(retired[r.tag])
	}
	edged, err := hex.DecodeString(edgedTreeForward)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(edged)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := bus.DecodePayload(bus.NewWireDec(bytes.NewReader(data)))
		if err != nil {
			return
		}
		switch v.(type) {
		case TreeForwardArg:
		default:
			return // some other registered payload; its own tests cover it
		}
		var buf bytes.Buffer
		e := bus.NewWireEnc(&buf)
		if err := bus.EncodePayload(e, v); err != nil {
			t.Fatalf("re-encode of accepted %T failed: %v", v, err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := bus.DecodePayload(bus.NewWireDec(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("re-decode of re-encoded %T failed: %v", v, err)
		}
		if !reflect.DeepEqual(again, v) {
			t.Fatalf("value drifted across re-encode for %T:\n first  %+v\n second %+v", v, v, again)
		}
	})
}
