//go:build !race

package oasis

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/credrec"
)

// Under the race detector allocation counts and heap sizes stop
// repeating, so this file is built without it.

// TestPresentedVerdictsAreNotRetained: a presented certificate is
// verified on every use and nothing of the check stays behind. 8 192
// distinct certificates are each validated twice, so a verdict cache
// admitting on second sight would keep every one, over 3 MB of
// snapshots; the live heap must grow by less than 1 MiB.
func TestPresentedVerdictsAreNotRetained(t *testing.T) {
	const n = 8192
	h := newHarness(t)
	c := h.client("ely")
	certs := make([]*cert.RMC, n)
	for i := range certs {
		certs[i] = h.logOn(t, c, fmt.Sprintf("user%d", i))
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	for _, rmc := range certs {
		for range 2 {
			if err := h.login.Validate(rmc, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := liveHeap()
	runtime.KeepAlive(h) // the service and its store must stay reachable
	runtime.KeepAlive(certs)
	grew := int64(after) - int64(before)
	t.Logf("live heap grew %d KiB", grew>>10)
	if grew >= 1<<20 {
		t.Fatalf("validating %d presented certificates twice grew the live heap by %d KiB, want under 1 MiB", n, grew>>10)
	}
}

// TestPermanentTransitionAllocs pins what one watched record's
// permanent transition allocates with two in-process watchers: the
// issuer's Modified event to its row and both watchers invalidating
// their surrogates. Measured 3, all at the issuer; 7 while every watch
// was also a broker registration (EXPERIMENTS.md E49).
func TestPermanentTransitionAllocs(t *testing.T) {
	const runs = 50
	h := newHarness(t)
	var watchers [2]*Service
	for i := range watchers {
		w, err := New(fmt.Sprintf("Watcher%d", i), h.clk, h.net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		watchers[i] = w
	}
	c := h.client("ely")
	refs := make([]credrec.Ref, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range refs {
		login := h.logOn(t, c, "dm")
		for _, w := range watchers {
			if _, _, err := w.WatchCertificate(login, c); err != nil {
				t.Fatal(err)
			}
		}
		refs[i] = login.CRR
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := h.login.Store().Invalidate(refs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n := h.login.watchRows() + watchers[0].surrogateRows() + watchers[1].surrogateRows(); n != 0 {
		t.Fatalf("%d rows left after every watched record's revocation", n)
	}
	t.Logf("%.0f allocs per permanent transition", got)
	if got > 3 {
		t.Errorf("a watched record's permanent transition allocates %.0f times, ceiling 3", got)
	}
}

// TestCascadeAllocs pins what a revocation cascade allocates when it
// reaches K watched records, each watched by the same W in-process
// services: the issuer's one Modified event, shared by the watchers,
// and every surrogate's invalidation. Measured 22 for K = 16, W = 2,
// all at the issuer; 37 while each record was signalled as an event of
// its own (EXPERIMENTS.md E50).
func TestCascadeAllocs(t *testing.T) {
	const runs, k = 50, 16
	h := newHarness(t)
	var watchers [2]*Service
	for i := range watchers {
		w, err := New(fmt.Sprintf("Watcher%d", i), h.clk, h.net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		watchers[i] = w
	}
	store := h.login.Store()
	roots := make([]credrec.Ref, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range roots {
		roots[i] = store.NewFact(credrec.True)
		for j := 0; j < k; j++ {
			dep := store.NewDerived(credrec.OpAnd, credrec.Of(roots[i]))
			for _, w := range watchers {
				w.surrogateFor("Login", dep)
			}
		}
		for _, w := range watchers {
			if err := w.ResyncSource("Login"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := h.login.watchRows(); n != len(roots)*k*len(watchers) {
		t.Fatalf("%d watch rows, want %d", n, len(roots)*k*len(watchers))
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := store.Invalidate(roots[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n := h.login.watchRows() + watchers[0].surrogateRows() + watchers[1].surrogateRows(); n != 0 {
		t.Fatalf("%d rows left after every cascade", n)
	}
	t.Logf("%.0f allocs per %d-record cascade", got, k)
	if got > 22 {
		t.Errorf("a %d-record cascade to two watchers allocates %.0f times, ceiling 22", k, got)
	}
}

// TestRemoteValidateAllocs pins what validating a foreign certificate
// the watcher already holds a surrogate for allocates, the issuer's
// answer included: measured 3, 4 while the issuer sorted its role
// names through an interface. The reply reaches the surrogate as a
// batch of one from a pooled buffer, so it adds none.
func TestRemoteValidateAllocs(t *testing.T) {
	h := newHarness(t)
	w, err := New("Watcher0", h.clk, h.net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	validate := func() {
		if _, _, err := w.WatchCertificate(login, c); err != nil {
			t.Fatal(err)
		}
	}
	validate()
	got := testing.AllocsPerRun(100, validate)
	t.Logf("%.0f allocs per remote validation", got)
	if got > 3 {
		t.Errorf("a remote validation allocates %.0f times, ceiling 3", got)
	}
}

// TestPeerValidateRoundTripAllocs pins what one validate costs over a
// loopback peer link, both ends counted: the caller's boxed argument,
// the reply it decodes and its role names — the issuer allocates
// nothing (TestServedValidateAllocs). Measured 3; 7 while the issuer
// boxed the decoded argument and its reply, decoded each certificate
// into a block of its own and built a fresh slice of role names, 10
// while the decode took three allocations and the check one.
func TestPeerValidateRoundTripAllocs(t *testing.T) {
	h := newHarness(t)
	caller := servePeerPort(t, h)
	c := h.client("ely")
	arg := ValidateArg{Cert: h.logOn(t, c, "dm"), Client: c}
	validate := func() {
		if _, err := caller.Call("Peer", "Login", "validate", arg); err != nil {
			t.Fatal(err)
		}
	}
	validate()
	got := testing.AllocsPerRun(200, validate)
	t.Logf("%.1f allocs per validate round trip", got)
	if got > 3 {
		t.Errorf("a validate round trip allocates %.1f times, ceiling 3", got)
	}
}

// TestServedValidateAllocs pins what the issuer allocates to serve a
// repeated validate on its peer port: nothing. A raw client writes a
// bench-shaped call frame and reads the reply's bytes, so only the
// served side allocates: its read loop decodes the call into the
// connection's block, answers it there and encodes the reply from the
// block, the role names appended into the array the last reply used.
func TestServedValidateAllocs(t *testing.T) {
	h := newHarness(t)
	RegisterWireTypes()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	serving := make(chan struct{})
	go func() { defer close(serving); _ = h.net.ServeTCP(ln) }()
	defer func() { ln.Close(); <-serving }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const hello = "OASIS1 bin\n"
	if _, err := io.WriteString(conn, hello); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, len(hello))); err != nil {
		t.Fatal(err)
	}

	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	// The frames of docs/PROTOCOLS.md "TCP bridging": a call (kind 1:
	// seq, from, to, op, payload) and its reply (kind 2: seq, err,
	// isNil, payload).
	frame := wireBytes(t, func(e *bus.WireEnc) error {
		e.PutByte(1)
		e.PutUvarint(1)
		e.PutString("Bench")
		e.PutString("Login")
		e.PutString("validate")
		return bus.EncodePayload(e, ValidateArg{Cert: login, Client: c})
	})
	want := wireBytes(t, func(e *bus.WireEnc) error {
		e.PutByte(2)
		e.PutUvarint(1)
		e.PutString("")
		e.PutBool(false)
		return bus.EncodePayload(e, ValidateReply{Roles: []string{"LoggedOn"}, State: credrec.True})
	})
	got := make([]byte, len(want))
	validate := func() {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reply %x, want %x", got, want)
		}
	}
	validate()
	if n := testing.AllocsPerRun(200, validate); n != 0 {
		t.Errorf("serving a repeated validate allocates %.1f times, want 0", n)
	}
}

// wireBytes returns what enc writes.
func wireBytes(t *testing.T, enc func(*bus.WireEnc) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := enc(bus.NewWireEnc(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
