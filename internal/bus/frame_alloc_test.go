//go:build !race

package bus_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// validateFrame is a validate call as bench/'s peer_validate sends one
// to Login: a LoggedOn(user, "bench") certificate with a 16-byte
// signature, bound to the bench's client.
func validateFrame(t *testing.T, user string) []byte {
	t.Helper()
	client := ids.ClientID{Host: "bench", ID: 1, BootTime: time.Unix(852076800, 0).UTC()}
	c := &cert.RMC{
		Service: "Login", Rolefile: "main", Roles: 1,
		Args:   []value.Value{value.Object("Login.userid", user), value.Object("Login.host", "bench")},
		Client: client, CRR: credrec.Ref{Index: 4096, Magic: 1},
		Sig: bytes.Repeat([]byte{0xa5}, 16),
	}
	var buf bytes.Buffer
	e := bus.NewWireEnc(&buf)
	if err := bus.EncodeCall(e, 1, "Bench", "Login", "validate", oasis.ValidateArg{Cert: c, Client: client}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeValidateCallAllocs pins what a read loop allocates to decode
// one validate call: the certificate's block (352 bytes for two
// arguments), the argument boxed in the frame's `any`, and the user id
// when the decoder has not seen it — 3 allocations and at most 448
// bytes (432 measured; 582 while the block took four arguments' room
// and the table was a map). A repeated frame takes 2: every other
// string comes from the decoder's table.
func TestDecodeValidateCallAllocs(t *testing.T) {
	oasis.RegisterWireTypes()
	const runs = 400
	frames := make([][]byte, runs+2)
	for i := range frames {
		frames[i] = validateFrame(t, fmt.Sprintf("u%08d", i))
	}
	var rd bytes.Reader
	dec := bus.NewWireDec(&rd)
	decode := func(frame []byte) {
		rd.Reset(frame)
		if v, err := bus.DecodeFrame(dec); err != nil {
			t.Fatal(err)
		} else if _, ok := v.(oasis.ValidateArg); !ok {
			t.Fatalf("decoded %T", v)
		}
		if dec.Buffered() != 0 {
			t.Fatalf("%d bytes left buffered after the frame", dec.Buffered())
		}
	}
	next := 0
	unseen := func() { decode(frames[next%len(frames)]); next++ }
	repeated := func() { decode(frames[0]) }

	unseen() // the window
	if got := testing.AllocsPerRun(runs, unseen); got != 3 {
		t.Errorf("a validate call with a new user id allocates %.1f times, want 3", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		unseen()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per validate call with a new user id", per)
	if per > 448 {
		t.Errorf("a validate call with a new user id allocates %d bytes, ceiling 448", per)
	}
	if got := testing.AllocsPerRun(runs, repeated); got != 2 {
		t.Errorf("a repeated validate call allocates %.1f times, want 2", got)
	}
}
