package bus

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/event"
)

type testPeer struct {
	mu    sync.Mutex
	calls []string
	notes []event.Notification
}

func (p *testPeer) Call(from, op string, arg any) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls = append(p.calls, from+":"+op)
	if op == "echo" {
		return arg, nil
	}
	return nil, errors.New("unknown op")
}

func (p *testPeer) Deliver(n event.Notification) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.notes = append(p.notes, n)
}

func (p *testPeer) noteCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.notes)
}

func newNet(t *testing.T) (*Network, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	return NewNetwork(clk), clk
}

func TestCallRoundTrip(t *testing.T) {
	n, _ := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	got, err := n.Call("a", "b", "echo", 42)
	if err != nil || got != 42 {
		t.Fatalf("Call = %v, %v", got, err)
	}
	if len(p.calls) != 1 || p.calls[0] != "a:echo" {
		t.Fatalf("calls = %v", p.calls)
	}
}

func TestCallUnknownPeer(t *testing.T) {
	n, _ := newNet(t)
	if _, err := n.Call("a", "ghost", "echo", 1); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	n, _ := newNet(t)
	if err := n.Register("x", &testPeer{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("x", &testPeer{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestLinkFailureBlocksCalls(t *testing.T) {
	n, _ := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	links := handLinks(n)
	links.setBlocked("a", "b", true)
	if _, err := n.Call("a", "b", "echo", 1); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	// Direction-independent and restorable.
	if _, err := n.Call("b", "a", "echo", 1); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("reverse direction: %v", err)
	}
	links.setBlocked("a", "b", false)
	if _, err := n.Call("a", "b", "echo", 1); err != nil {
		t.Fatalf("restored link: %v", err)
	}
}

func TestNotificationDroppedOnFailedLink(t *testing.T) {
	n, _ := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	handLinks(n).setBlocked("a", "b", true)
	n.Send("a", "b", event.Notification{Seq: 1})
	if p.noteCount() != 0 {
		t.Fatal("notification crossed failed link")
	}
	if n.Count("dropped") != 1 {
		t.Fatalf("dropped = %d", n.Count("dropped"))
	}
}

func TestDelayedNotification(t *testing.T) {
	n, clk := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	handLinks(n).setDelay("a", "b", 5*time.Second)
	n.Send("a", "b", event.Notification{Seq: 1})
	if p.noteCount() != 0 {
		t.Fatal("delayed notification arrived early")
	}
	if n.PendingNotifications() != 1 {
		t.Fatalf("pending = %d", n.PendingNotifications())
	}
	clk.Advance(4 * time.Second)
	n.Flush()
	if p.noteCount() != 0 {
		t.Fatal("notification arrived before delay elapsed")
	}
	clk.Advance(2 * time.Second)
	if got := n.Flush(); got != 1 {
		t.Fatalf("Flush delivered %d", got)
	}
	if p.noteCount() != 1 {
		t.Fatal("notification lost")
	}
}

func TestFlushPreservesDueOrder(t *testing.T) {
	n, clk := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	links := handLinks(n)
	links.setDelay("slow", "b", 10*time.Second)
	links.setDelay("fast", "b", 1*time.Second)
	n.Send("slow", "b", event.Notification{Seq: 1, Source: "slow"})
	n.Send("fast", "b", event.Notification{Seq: 2, Source: "fast"})
	clk.Advance(20 * time.Second)
	n.Flush()
	if p.notes[0].Source != "fast" || p.notes[1].Source != "slow" {
		t.Fatalf("order = %v, %v", p.notes[0].Source, p.notes[1].Source)
	}
}

func TestCounters(t *testing.T) {
	n, _ := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call("a", "b", "echo", 1); err != nil {
		t.Fatal(err)
	}
	n.Send("a", "b", event.Notification{Heartbeat: true})
	n.Send("a", "b", event.Notification{})
	if n.Count("call:echo") != 1 || n.Count("notify") != 2 || n.Count("heartbeat") != 1 {
		t.Fatalf("counts: call=%d notify=%d hb=%d",
			n.Count("call:echo"), n.Count("notify"), n.Count("heartbeat"))
	}
}

func TestSinkBridgesBrokerAcrossNetwork(t *testing.T) {
	// A broker on service A notifies a subscriber on service B through
	// the network, so failure injection applies to event delivery.
	n, clk := newNet(t)
	p := &testPeer{}
	if err := n.Register("B", p); err != nil {
		t.Fatal(err)
	}
	broker := event.NewBroker("A", clk, event.BrokerOptions{})
	sess, err := broker.OpenSession(n.Sink("A", "B"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Register(sess, event.NewTemplate("E")); err != nil {
		t.Fatal(err)
	}
	broker.Signal(event.New("E"))
	if p.noteCount() != 1 {
		t.Fatal("event did not cross the network")
	}
	handLinks(n).setBlocked("A", "B", true)
	broker.Signal(event.New("E"))
	if p.noteCount() != 1 {
		t.Fatal("event crossed failed link")
	}
}

func TestTCPBridgeCallAndNotify(t *testing.T) {
	testPayloads(t)
	clkA := clock.NewVirtual(time.Unix(0, 0))
	netA := NewNetwork(clkA)
	served := &testPeer{}
	if err := netA.Register("svc", served); err != nil {
		t.Fatal(err)
	}
	ln, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	go func() { _ = netA.ServeTCP(ln) }()
	defer ln.Close()

	netB := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	caller := &testPeer{}
	if err := netB.Register("caller", caller); err != nil {
		t.Fatal(err)
	}
	if err := netB.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer netB.CloseRemotes()

	// Call across the bridge.
	ping := testPayloadA{Name: "ping"}
	got, err := netB.Call("caller", "svc", "echo", ping)
	if err != nil || got != ping {
		t.Fatalf("Call = %v, %v", got, err)
	}
	// Unknown op errors propagate.
	if _, err := netB.Call("caller", "svc", "boom", nil); err == nil {
		t.Fatal("remote error lost")
	}
	// Notify across the bridge (forward direction).
	netB.Send("caller", "svc", event.Notification{Seq: 7, Source: "caller"})
	deadline := time.Now().Add(2 * time.Second)
	for served.noteCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forward notification lost")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Back-channel: svc can now notify caller without a reverse link.
	netA.Send("svc", "caller", event.Notification{Seq: 9, Source: "svc"})
	for caller.noteCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("back-channel notification lost")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAddRemoteErrors(t *testing.T) {
	n := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	if err := n.AddRemote("x", "127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if err := n.Register("local", &testPeer{}); err != nil {
		t.Fatal(err)
	}
	ln, err := nettest()
	if err != nil {
		t.Skip(err)
	}
	defer ln.Close()
	go func() { _ = n.ServeTCP(ln) }()
	if err := n.AddRemote("local", ln.Addr().String()); err == nil {
		t.Fatal("remote name shadowing a local peer accepted")
	}
}

// nettest opens a loopback listener.
func nettest() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
