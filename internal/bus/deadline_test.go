package bus

import (
	"bufio"
	"errors"
	"expvar"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/event"
)

// fakePeer listens on loopback, completes the hello on every accepted
// connection and hands it to serve, which owns it from there. accepts
// counts the hellos answered.
func fakePeer(t *testing.T, serve func(net.Conn)) (addr string, accepts *atomic.Int64) {
	t.Helper()
	ln, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	accepts = new(atomic.Int64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if readHello(conn) != nil {
				conn.Close()
				continue
			}
			accepts.Add(1) // before the echo: the dialler returns on reading it
			if _, err := conn.Write([]byte(wireHello)); err != nil {
				conn.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln.Addr().String(), accepts
}

func remoteOf(t *testing.T, n *Network, name string) *remotePeer {
	t.Helper()
	n.peersMu.RLock()
	defer n.peersMu.RUnlock()
	rp, ok := n.remotes[name].(*remotePeer)
	if !ok {
		t.Fatalf("%q is not a remotePeer link", name)
	}
	return rp
}

// TestCallDeadline: a peer that accepts a call and never answers it
// holds the caller for CallDeadline on the home clock and no longer;
// the abandoned call leaves no waiter behind, its reply arriving late
// is dropped, and the link goes on serving calls on the same
// connection.
func TestCallDeadline(t *testing.T) {
	testPayloads(t)
	got := make(chan wireMsg) // the call the peer will sit on
	answerLate := make(chan struct{})
	addr, accepts := fakePeer(t, func(conn net.Conn) {
		dec := NewWireDec(bufio.NewReader(conn))
		enc := NewWireEnc(bufio.NewWriter(conn))
		reply := func(m *wireMsg) bool {
			r := wireMsg{Kind: "reply", Seq: m.Seq, Arg: m.Arg}
			return encodeWireMsg(enc, &r) == nil && enc.Flush() == nil
		}
		var stalled wireMsg
		if decodeWireMsg(dec, &stalled) != nil {
			return
		}
		got <- stalled
		<-answerLate
		if !reply(&stalled) {
			return
		}
		for {
			var m wireMsg
			if decodeWireMsg(dec, &m) != nil || !reply(&m) {
				return
			}
		}
	})

	n, clk := newNet(t)
	if err := n.AddRemote("svc", addr); err != nil {
		t.Fatal(err)
	}
	defer n.CloseRemotes()
	rp := remoteOf(t, n, "svc")

	done := make(chan error, 1)
	go func() {
		_, err := n.Call("caller", "svc", "echo", testPayloadA{Name: "never answered"})
		done <- err
	}()
	<-got
	select {
	case err := <-done:
		t.Fatalf("call returned before the deadline: %v", err)
	default:
	}
	// The reaper sleeps on the virtual clock; pump it past the deadline
	// until the call gives up.
	var err error
	for waiting := true; waiting; {
		select {
		case err = <-done:
			waiting = false
		case <-time.After(time.Millisecond):
			clk.Advance(CallDeadline/2 + time.Second)
		}
	}
	if !errors.Is(err, ErrCallDeadline) {
		t.Fatalf("err = %v, want ErrCallDeadline", err)
	}
	rp.mu.Lock()
	left := len(rp.waiting)
	rp.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d waiters left behind by the abandoned call", left)
	}

	// The late reply goes out ahead of the next call's, on one stream:
	// the echo coming back proves the late one was read and dropped.
	close(answerLate)
	for i := 0; i < 3; i++ {
		ping := testPayloadA{Name: "after", Count: int64(i)}
		if res, err := n.Call("caller", "svc", "echo", ping); err != nil || res != ping {
			t.Fatalf("call %d after the deadline = %v, %v", i, res, err)
		}
	}
	if a := accepts.Load(); a != 1 {
		t.Fatalf("link reconnected (%d connections): a passed deadline must not break it", a)
	}
}

// TestSlowDialKeepsReplyDeadline: a call's CallDeadline bounds the
// wait for its reply and starts once the link is up; the dial is bounded
// apart (dialHello). A peer holds the hello while the home clock passes
// 9 s and then answers it, and holds the call 2 s more: the reply comes
// 11 s after the call began and 2 s after it went out, and the call must
// get it. A deadline taken before the dial had run out 10 s in.
func TestSlowDialKeepsReplyDeadline(t *testing.T) {
	testPayloads(t)
	ln, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	defer ln.Close()
	accepted, helloGo := make(chan struct{}), make(chan struct{})
	got, answer := make(chan struct{}), make(chan struct{})
	go func() {
		// AddRemote's connection is answered at once; the test breaks
		// it, and the call's redial is the one held.
		first, err := ln.Accept()
		if err != nil {
			return
		}
		defer first.Close()
		if readHello(first) != nil {
			return
		}
		if _, err := first.Write([]byte(wireHello)); err != nil {
			return
		}
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		close(accepted)
		<-helloGo
		if readHello(conn) != nil {
			return
		}
		if _, err := conn.Write([]byte(wireHello)); err != nil {
			return
		}
		dec := NewWireDec(bufio.NewReader(conn))
		enc := NewWireEnc(bufio.NewWriter(conn))
		var m wireMsg
		if decodeWireMsg(dec, &m) != nil {
			return
		}
		close(got)
		<-answer
		r := wireMsg{Kind: "reply", Seq: m.Seq, Arg: m.Arg}
		if encodeWireMsg(enc, &r) == nil && enc.Flush() == nil {
			_ = decodeWireMsg(dec, &m) // until the caller hangs up
		}
	}()

	n, clk := newNet(t)
	if err := n.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer n.CloseRemotes()
	rp := remoteOf(t, n, "svc")
	rp.mu.Lock()
	rp.breakLocked()
	rp.mu.Unlock()
	ping := testPayloadA{Name: "after a slow dial"}
	done := make(chan error, 1)
	go func() {
		res, err := n.Call("caller", "svc", "echo", ping)
		if err == nil && res != ping {
			err = fmt.Errorf("reply %v, want %v", res, ping)
		}
		done <- err
	}()
	<-accepted
	clk.Advance(9 * time.Second)
	close(helloGo)
	<-got
	// The reaper sleeps on the virtual clock from whenever it starts:
	// pass the next 2 s in steps, so a deadline inside them fires.
	for range 20 {
		clk.Advance(100 * time.Millisecond)
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("call returned before its reply: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(answer)
	if err := <-done; err != nil {
		t.Fatalf("call after a 9 s dial: %v", err)
	}
}

// TestStalledReaderKillsWriter: a peer that completes the hello and then
// never reads cannot hold a notification burst's sender: notify only
// queues, and the link's flusher goroutine is the one blocked in the
// write, for one to two write bounds. The writer then dies the way any
// wire failure kills it: every notification of the burst counts dropped
// exactly once, on the link and on the network. The next send counts
// dropped too, and one background redial reconnects the link.
func TestStalledReaderKillsWriter(t *testing.T) {
	release := make(chan struct{})
	addr, accepts := fakePeer(t, func(conn net.Conn) {
		_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
		<-release
	})
	defer close(release)

	n, _ := newNet(t)
	if err := n.AddRemote("svc", addr); err != nil {
		t.Fatal(err)
	}
	defer n.CloseRemotes()
	rp := remoteOf(t, n, "svc")
	const bound = 200 * time.Millisecond
	rp.mu.Lock()
	first := rp.conn
	_ = first.(*net.TCPConn).SetWriteBuffer(4 << 10)
	rp.wr.Load().bound = bound // nothing has been flushed yet: no flusher reads it
	rp.mu.Unlock()

	// 16 MiB on the wire: more than loopback socket buffers hold even
	// where the kernel ignores the shrinking above.
	const burst = 4096
	big := strings.Repeat("x", 4<<10)
	notes := make([]event.Notification, burst)
	for i := range notes {
		notes[i] = event.Notification{Source: "caller", SessionID: 1, Seq: uint64(i + 1), Event: event.Event{Name: big}}
	}
	start := time.Now()
	n.notify(rp, "caller", "svc", notes)
	// The signaller only queues: the link's flusher goroutine is the one
	// blocked in the write.
	if took := time.Since(start); took > bound/2 {
		t.Fatalf("notify into a stalled reader took %v, want well under %v", took, bound)
	}
	waitFor(t, func() bool { return n.Count("dropped") != 0 })
	if took := time.Since(start); took < bound || took > 2*bound+5*time.Second {
		t.Fatalf("the writer died %v after its blocked write began, want between %v and %v (plus scheduling)", took, bound, 2*bound)
	}
	if got := n.Count("dropped"); got != burst {
		t.Fatalf("network counted %d dropped, want %d", got, burst)
	}

	// Once the read loop has seen the socket close the link has no
	// writer: the next send is lost without a dial, and one background
	// redial reconnects, so the send after it is accepted.
	waitFor(t, func() bool { return rp.writer() == nil })
	start = time.Now()
	n.Send("caller", "svc", event.Notification{Source: "caller", SessionID: 1, Seq: burst + 1})
	if took := time.Since(start); took > bound/2 {
		t.Fatalf("a send over the broken link took %v, want well under %v", took, bound)
	}
	if got := n.Count("dropped"); got != burst+1 {
		t.Fatalf("network counted %d dropped after a send over the broken link, want %d", got, burst+1)
	}
	waitFor(t, func() bool { return rp.writer() != nil })
	if a := accepts.Load(); a != 2 {
		t.Fatalf("%d connections after the redial, want 2", a)
	}
	n.Send("caller", "svc", event.Notification{Source: "caller", SessionID: 1, Seq: burst + 2})
	if got := n.Count("dropped"); got != burst+1 {
		t.Fatalf("network counted %d dropped after reconnecting, want %d still", got, burst+1)
	}
}

// blockingPeer echoes, except that op "block" waits for release.
type blockingPeer struct {
	testPeer
	blocked chan struct{} // closed once "block" is being served
	release chan struct{}
}

func (p *blockingPeer) Call(from, op string, arg any) (any, error) {
	if op == "block" {
		close(p.blocked)
		<-p.release
		return arg, nil
	}
	return p.testPeer.Call(from, op, arg)
}

// TestServedCallsOvertakeBlockedHandler: of 64 concurrent calls on one
// connection, one whose handler blocks holds up none of the other 63;
// once the burst is over the connection keeps no more than
// maxParkedWorkers goroutines waiting for calls, and they leave with
// the connection.
func TestServedCallsOvertakeBlockedHandler(t *testing.T) {
	testPayloads(t)
	base := runtime.NumGoroutine()
	n, clk := newNet(t)
	goroutinesSettleAt := func(limit int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > limit {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), limit, buf[:runtime.Stack(buf, true)])
			}
			// The caller's reaper leaves when it wakes to an empty table.
			clk.Advance(CallDeadline)
			time.Sleep(time.Millisecond)
		}
	}

	served := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	peer := &blockingPeer{blocked: make(chan struct{}), release: make(chan struct{})}
	if err := served.Register("svc", peer); err != nil {
		t.Fatal(err)
	}
	ln, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	serving := make(chan struct{})
	go func() { defer close(serving); _ = served.ServeTCP(ln) }()
	defer func() { ln.Close(); <-serving }()

	if err := n.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer n.CloseRemotes()

	blockDone := make(chan error, 1)
	go func() {
		_, err := n.Call("caller", "svc", "block", testPayloadA{Name: "slow"})
		blockDone <- err
	}()
	<-peer.blocked

	const others = 63
	var wg sync.WaitGroup
	errs := make(chan error, others)
	for i := 0; i < others; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ping := testPayloadA{Name: "fast", Count: int64(i)}
			if res, err := n.Call("caller", "svc", "echo", ping); err != nil || res != ping {
				errs <- errors.New("echo behind a blocked handler failed")
			}
		}(i)
	}
	wg.Wait() // a blocked read loop would hang here, and the test with it
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	select {
	case err := <-blockDone:
		t.Fatalf("blocked call returned early: %v", err)
	default:
	}
	close(peer.release)
	if err := <-blockDone; err != nil {
		t.Fatal(err)
	}

	// Accept loop + serveConn + its parked workers, and the caller's
	// read loop.
	goroutinesSettleAt(base + 3 + maxParkedWorkers)
	n.CloseRemotes()
	goroutinesSettleAt(base + 1) // the accept loop
}

// TestPendingNotesTakesNoLinkLock: the "pending_notes" figure reads each
// link's writer without the link's lock, so a scrape never waits on
// whoever holds it.
func TestPendingNotesTakesNoLinkLock(t *testing.T) {
	release := make(chan struct{})
	addr, _ := fakePeer(t, func(net.Conn) { <-release })
	defer close(release)
	n, _ := newNet(t)
	if err := n.AddRemote("svc", addr); err != nil {
		t.Fatal(err)
	}
	defer n.CloseRemotes()
	rp := remoteOf(t, n, "svc")
	rp.mu.Lock()
	defer rp.mu.Unlock()
	got := make(chan any, 1)
	go func() { got <- n.Vars().Get("pending_notes").(expvar.Func).Value() }()
	select {
	case v := <-got:
		if pending, ok := v.(map[string]int)["svc"]; !ok || pending != 0 {
			t.Fatalf("pending_notes = %v, want svc at 0", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending_notes waited on the link's lock")
	}
}
