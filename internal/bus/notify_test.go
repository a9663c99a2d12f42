package bus

import (
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

// heldPeer serves served's endpoints on a loopback listener. The first
// connection is answered at once; every later one waits, its hello
// unanswered, until answer is closed. accepts counts the connections.
func heldPeer(t *testing.T, served *Network) (addr string, answer chan struct{}, accepts *atomic.Int64) {
	t.Helper()
	ln, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	answer = make(chan struct{})
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
			held := accepts.Add(1) > 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				if held {
					<-answer
				}
				served.serveConn(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		select {
		case <-answer:
		default:
			close(answer)
		}
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String(), answer, accepts
}

// TestNotifySendNeverDials: a -remote link whose connection broke is
// redialled by a call, and the peer sits on the hello. Sends meanwhile
// neither wait for that dial nor queue behind the link's lock: each is
// counted dropped at once, and together they start at most one redial.
// Once the peer answers, a later send is delivered over the new
// connection; with no call about, a send over a broken link brings it
// back through one background redial.
func TestNotifySendNeverDials(t *testing.T) {
	testPayloads(t)
	served := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	peer := &testPeer{}
	if err := served.Register("svc", peer); err != nil {
		t.Fatal(err)
	}
	addr, answer, accepts := heldPeer(t, served)
	n, _ := newNet(t)
	if err := n.AddRemote("svc", addr); err != nil {
		t.Fatal(err)
	}
	defer n.CloseRemotes()
	rp := remoteOf(t, n, "svc")
	breakLink := func() {
		rp.mu.Lock()
		rp.breakLocked()
		rp.mu.Unlock()
	}
	breakLink()

	called := make(chan error, 1)
	go func() {
		_, err := n.Call("caller", "svc", "echo", testPayloadA{Name: "dialling"})
		called <- err
	}()
	waitFor(t, func() bool { return accepts.Load() == 2 }) // the call's dial, held

	const sends = 32
	goroutines := runtime.NumGoroutine()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := range sends {
			n.Send("caller", "svc", event.Notification{Source: "caller", SessionID: 1, Seq: uint64(i + 1)})
		}
	}()
	select {
	case <-sent:
	case <-time.After(CallDeadline / 10):
		t.Fatalf("%d sends over a link being dialled still running after %v", sends, CallDeadline/10)
	}
	if got := n.Count("dropped"); got != sends {
		t.Fatalf("network counted %d dropped, want %d", got, sends)
	}
	// The redial, and the sending goroutine if it has yet to exit.
	if grew := runtime.NumGoroutine() - goroutines; grew > 2 {
		t.Fatalf("%d sends left %d more goroutines, want at most one redial", sends, grew)
	}

	close(answer)
	if err := <-called; err != nil {
		t.Fatalf("the call that held the dial: %v", err)
	}
	n.Send("caller", "svc", event.Notification{Source: "caller", SessionID: 1, Seq: sends + 1})
	waitFor(t, func() bool { return peer.noteCount() == 1 })
	if a := accepts.Load(); a > 3 {
		t.Fatalf("%d connections, want the first, the call's and at most one redial", a)
	}

	// No call this time: a send finds no writer and one redial comes.
	breakLink()
	dialled := accepts.Load()
	n.Send("caller", "svc", event.Notification{Source: "caller", SessionID: 1, Seq: sends + 2})
	waitFor(t, func() bool { return rp.writer() != nil })
	n.Send("caller", "svc", event.Notification{Source: "caller", SessionID: 1, Seq: sends + 3})
	waitFor(t, func() bool { return peer.noteCount() == 2 })
	if a := accepts.Load(); a != dialled+1 {
		t.Fatalf("%d connections after the redial, want %d", a, dialled+1)
	}
	if got := n.Count("dropped"); got != sends+1 {
		t.Fatalf("network counted %d dropped, want %d", got, sends+1)
	}
}

// TestNoteQueueBoundKillsWriter: a watcher that answers the hello and
// reads nothing fills its link's queue up to the writer's bound, and the
// burst that would pass it kills the writer at once, long before the
// write deadline: every note the writer had accepted counts dropped,
// and so does the burst, each exactly once. A watcher on a healthy link
// of the same network hears a notification sent after the kill as
// promptly as it did before.
func TestNoteQueueBoundKillsWriter(t *testing.T) {
	release := make(chan struct{})
	stalled, _ := fakePeer(t, func(conn net.Conn) {
		_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
		<-release
	})
	defer close(release)
	served := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	heard := make(chan time.Time, 4)
	if err := served.Register("ok", deliverFunc(func(event.Notification) { heard <- time.Now() })); err != nil {
		t.Fatal(err)
	}
	ln, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	go func() { _ = served.ServeTCP(ln) }()
	defer ln.Close()

	n, _ := newNet(t)
	for name, addr := range map[string]string{"stall": stalled, "ok": ln.Addr().String()} {
		if err := n.AddRemote(name, addr); err != nil {
			t.Fatal(err)
		}
	}
	defer n.CloseRemotes()
	latency := func(seq uint64) time.Duration {
		t.Helper()
		start := time.Now()
		n.Send("caller", "ok", event.Notification{Source: "caller", SessionID: 2, Seq: seq})
		select {
		case at := <-heard:
			return at.Sub(start)
		case <-time.After(CallDeadline):
			t.Fatal("the healthy watcher never heard the notification")
		}
		return 0
	}
	usual := latency(1)

	rp := remoteOf(t, n, "stall")
	const bound = 256
	rp.mu.Lock()
	wr := rp.writer()
	_ = rp.conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	wr.maxNotes = bound // nothing has been queued yet: no enqueue reads it
	rp.mu.Unlock()

	// Notes of 16 KiB, one at a time: the flusher soon blocks in the
	// socket, the queue grows behind it, and the note that finds it at
	// the bound kills the writer.
	big := strings.Repeat("x", 16<<10)
	start := time.Now()
	for seq := uint64(1); n.Count("dropped") == 0; seq++ {
		if time.Since(start) > wr.bound {
			t.Fatalf("no note dropped after %d sends", seq)
		}
		n.Send("caller", "stall", event.Notification{Source: "caller", SessionID: 1, Seq: seq, Event: event.Event{Name: big}})
	}
	if got := n.Count("dropped"); got != bound+1 {
		t.Fatalf("network counted %d dropped when the bound was passed, want %d", got, bound+1)
	}
	if took := time.Since(start); took >= wr.bound {
		t.Fatalf("the writer died %v after the first send, not before its %v write deadline", took, wr.bound)
	}
	// The read loop sees the socket close and clears the link; the flusher
	// fails its write. Neither counts a note again.
	waitFor(t, func() bool { return rp.writer() != wr })
	if got := n.Count("dropped"); got != bound+1 {
		t.Fatalf("network counted %d dropped once the link was cleared, want %d still", got, bound+1)
	}
	if got := latency(2); got > 2*usual+250*time.Millisecond {
		t.Fatalf("the healthy watcher heard a notification %v after it was sent, against %v before the kill", got, usual)
	}
}

// deliverFunc is an endpoint that hands every notification to deliver.
type deliverFunc func(event.Notification)

func (deliverFunc) Call(string, string, any) (any, error) { return nil, nil }
func (r deliverFunc) Deliver(note event.Notification)     { r(note) }
