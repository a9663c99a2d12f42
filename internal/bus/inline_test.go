package bus

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"oasis/internal/clock"
)

// inlinePeer declares "echo" and "hold" never to wait. "hold" keeps its
// word only once "echo" has been served, so a hold run on the read loop
// with an echo behind it would never return. Each handler records
// whether it ran on the read loop.
type inlinePeer struct {
	testPeer
	echoed   chan struct{}
	echoOnce sync.Once

	mu     sync.Mutex
	onLoop map[string]bool
}

func (p *inlinePeer) NeverWaits(op string, arg any) bool { return op == "echo" || op == "hold" }

func (p *inlinePeer) Call(from, op string, arg any) (any, error) {
	stack := make([]byte, 4096)
	stack = stack[:runtime.Stack(stack, false)]
	p.mu.Lock()
	p.onLoop[op] = !bytes.Contains(stack, []byte("(*callWorkers).work("))
	p.mu.Unlock()
	switch op {
	case "hold":
		<-p.echoed
		return arg, nil
	case "echo":
		p.echoOnce.Do(func() { close(p.echoed) })
	}
	return p.testPeer.Call(from, op, arg)
}

func (p *inlinePeer) ranOnLoop(op string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.onLoop[op]
}

// serveInline serves an inlinePeer named "svc" on a loopback listener.
func serveInline(t *testing.T) (*inlinePeer, string) {
	t.Helper()
	testPayloads(t)
	served := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	peer := &inlinePeer{echoed: make(chan struct{}), onLoop: make(map[string]bool)}
	if err := served.Register("svc", peer); err != nil {
		t.Fatal(err)
	}
	ln, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	serving := make(chan struct{})
	go func() { defer close(serving); _ = served.ServeTCP(ln) }()
	t.Cleanup(func() { ln.Close(); <-serving })
	return peer, ln.Addr().String()
}

// TestBufferedCallGoesToWorker: a call declared never to wait is run on
// the read loop only when no input is buffered behind it. Two declared
// calls written in one segment: the first, with the second's bytes
// behind it, goes to a worker; the second, with nothing behind it, runs
// on the loop. Had the first run on the loop, it would wait forever for
// the second, which only the loop can read.
func TestBufferedCallGoesToWorker(t *testing.T) {
	peer, addr := serveInline(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(wireHello)); err != nil {
		t.Fatal(err)
	}
	if err := readHello(conn); err != nil {
		t.Fatal(err)
	}
	var frames bytes.Buffer
	enc := NewWireEnc(&frames)
	for i, op := range []string{"hold", "echo"} {
		msg := wireMsg{Kind: "call", Seq: uint64(i + 1), From: "caller", To: "svc", Op: op, Arg: testPayloadA{Name: op}}
		if err := encodeWireMsg(enc, &msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frames.Bytes()); err != nil { // one write, so one segment
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	dec := NewWireDec(bufio.NewReader(conn))
	answered := map[uint64]bool{}
	for len(answered) < 2 {
		var reply wireMsg
		if err := decodeWireMsg(dec, &reply); err != nil {
			t.Fatalf("after %d replies: %v (a call with input behind it held the read loop)", len(answered), err)
		}
		if reply.Kind != "reply" || reply.Err != "" {
			t.Fatalf("reply %+v", reply)
		}
		answered[reply.Seq] = true
	}
	if peer.ranOnLoop("hold") {
		t.Error("hold, with echo buffered behind it, ran on the read loop")
	}
	if !peer.ranOnLoop("echo") {
		t.Error("echo, with nothing buffered behind it, ran on a worker")
	}
}

// TestPipelinedInlineCallersAllAnswered: 64 callers sharing one link
// call a declared op at once, so calls arrive both alone and with
// others buffered behind them; every caller gets its own answer.
func TestPipelinedInlineCallersAllAnswered(t *testing.T) {
	_, addr := serveInline(t)
	n, _ := newNet(t)
	if err := n.AddRemote("svc", addr); err != nil {
		t.Fatal(err)
	}
	defer n.CloseRemotes()
	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 20 {
				ping := testPayloadA{Name: fmt.Sprintf("caller %d", i), Count: int64(j)}
				if res, err := n.Call("caller", "svc", "echo", ping); err != nil || res != ping {
					errs <- fmt.Errorf("caller %d call %d: got %v, %v", i, j, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
