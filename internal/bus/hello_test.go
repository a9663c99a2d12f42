package bus

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/event"
)

func waitFor(t *testing.T, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// countingListener counts accepted connections, so tests can tell a
// reconnect from a reused link and prove the absence of a re-dial.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// serveCounted serves a fresh network with one testPeer named "svc" on
// a counting loopback listener.
func serveCounted(t *testing.T) (*Network, *testPeer, *countingListener) {
	t.Helper()
	n := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	p := &testPeer{}
	if err := n.Register("svc", p); err != nil {
		t.Fatal(err)
	}
	inner, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	ln := &countingListener{Listener: inner}
	go func() { _ = n.ServeTCP(ln) }()
	t.Cleanup(func() { ln.Close() })
	return n, p, ln
}

// The positive case: both ends exchange the hello, the link reports the
// binary format, and calls, notifications and the back-channel work.
func TestWireNegotiatesBinary(t *testing.T) {
	testPayloads(t)
	serverNet, served, ln := serveCounted(t)
	clientNet := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	caller := &testPeer{}
	if err := clientNet.Register("caller", caller); err != nil {
		t.Fatal(err)
	}
	if f := clientNet.RemoteWireFormat("svc"); f != "" {
		t.Fatalf("unconnected name reports format %q", f)
	}
	if err := clientNet.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer clientNet.CloseRemotes()
	if f := clientNet.RemoteWireFormat("svc"); f != WireBinary {
		t.Fatalf("link speaks %q, want %q", f, WireBinary)
	}
	ping := testPayloadA{Name: "ping"}
	if got, err := clientNet.Call("caller", "svc", "echo", ping); err != nil || got != ping {
		t.Fatalf("Call = %v, %v", got, err)
	}
	clientNet.Send("caller", "svc", event.Notification{Source: "caller", Seq: 1})
	waitFor(t, func() bool { return served.noteCount() == 1 })
	// The call above taught the server a back-channel for "caller".
	serverNet.Send("svc", "caller", event.Notification{Source: "svc", Seq: 1})
	waitFor(t, func() bool { return caller.noteCount() == 1 })
}

// A connection that does not open with the hello is closed before any
// frame behind the bad opening reaches Call or Send, and the server
// reads no more than the hello's length off it — in particular a peer
// that sends the prefix and then a megabyte with no newline cannot make
// it buffer the stream.
func TestServerHangsUpWithoutHello(t *testing.T) {
	frames := append(
		fuzzEncode(t, &wireMsg{Kind: "call", Seq: 1, From: "x", To: "svc", Op: "echo"}),
		fuzzEncode(t, &wireMsg{Kind: "notify", From: "x", To: "svc", Note: event.Notification{Source: "x", Seq: 1}})...)
	cases := []struct {
		name    string
		opening string
	}{
		// What a pre-hello gob peer opened with: a type descriptor.
		{"gob-descriptor", "\x5b\xff\x81\x03\x01\x01\x07wireMsg\x01\xff\x82\x00\x01\x09"},
		{"junk", "GET / HTTP/1.1\r\n\r\n"},
		{"wrong-version", "OASIS2 bin\n"},
		{"short-then-close", "OASIS1"},
		{"immediate-close", ""},
		{"unterminated-hello", "OASIS1 " + strings.Repeat("x", 1<<20)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
			p := &testPeer{}
			if err := n.Register("svc", p); err != nil {
				t.Fatal(err)
			}
			client, server := net.Pipe()
			done := make(chan struct{})
			go func() {
				n.serveConn(server)
				close(done)
			}()
			// Well-formed frames follow every opening long enough to be
			// judged; a shorter one is cut off by the close instead.
			payload := []byte(tc.opening)
			if len(payload) >= len(wireHello) {
				payload = append(payload, frames...)
			}
			// A pipe write returns only once the server consumed the
			// bytes or closed its end, so the count is exact.
			consumed, _ := client.Write(payload)
			client.Close()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("server did not hang up")
			}
			if consumed > len(wireHello) {
				t.Fatalf("server consumed %d bytes, bound is %d", consumed, len(wireHello))
			}
			p.mu.Lock()
			calls, notes := len(p.calls), len(p.notes)
			p.mu.Unlock()
			if calls != 0 || notes != 0 {
				t.Fatalf("%d calls and %d notifications dispatched without a hello", calls, notes)
			}
		})
	}
}

// A dial answered with anything but the hello fails, and fails once:
// the listener sees exactly one connection, never a second attempt.
func TestAddRemoteFailsOnBadHelloWithoutRedial(t *testing.T) {
	answers := map[string]string{
		"junk":     "HTTP/1.1 400 Bad Request\r\n\r\n",
		"hangs-up": "",
	}
	for name, answer := range answers {
		t.Run(name, func(t *testing.T) {
			ln, err := nettest()
			if err != nil {
				t.Skip("no loopback listener available:", err)
			}
			defer ln.Close()
			accepted := make(chan int)
			go func() {
				count := 0
				for {
					conn, err := ln.Accept()
					if err != nil {
						accepted <- count
						return
					}
					count++
					_, _ = conn.Write([]byte(answer))
					conn.Close()
				}
			}()
			n := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
			if err := n.AddRemote("svc", ln.Addr().String()); err == nil {
				t.Fatal("AddRemote succeeded against a peer that never said hello")
			}
			if f := n.RemoteWireFormat("svc"); f != "" {
				t.Fatalf("failed dial left a route speaking %q", f)
			}
			// A second dial would have completed before AddRemote
			// returned and be waiting in the accept queue; drain it
			// before the deadline ends the accept loop.
			_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(100 * time.Millisecond))
			if got := <-accepted; got != 1 {
				t.Fatalf("listener accepted %d connections, want exactly 1", got)
			}
		})
	}
}

// An argument type nobody registered fails its call — the writer cannot
// frame it, so the connection is torn down — and the link recovers: the
// next call on the same remotePeer goes out on a fresh connection.
func TestCallWithUnregisteredPayloadFailsThenReconnects(t *testing.T) {
	testPayloads(t)
	_, served, ln := serveCounted(t)
	n := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	if err := n.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer n.CloseRemotes()
	if _, err := n.Call("caller", "svc", "echo", testPayloadUnregistered{X: 1}); err == nil {
		t.Fatal("call with an unregistered argument type succeeded")
	} else if errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v: the call was accepted for the wire, so it must not read as a pre-send failure", err)
	}
	ping := testPayloadA{Name: "ping"}
	if got, err := n.Call("caller", "svc", "echo", ping); err != nil || got != ping {
		t.Fatalf("Call after the failed one = %v, %v", got, err)
	}
	if got := ln.accepts.Load(); got != 2 {
		t.Fatalf("server accepted %d connections, want 2 (original + reconnect)", got)
	}
	served.mu.Lock()
	calls := len(served.calls)
	served.mu.Unlock()
	if calls != 1 {
		t.Fatalf("server executed %d calls, want only the registered one", calls)
	}
}
