package bus

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/clock"
	"oasis/internal/event"
)

// TCP bridging: a Network can serve its registered endpoints to remote
// processes and route calls/notifications for remote names over real
// sockets, so that OASIS services in different processes interwork with
// the same semantics as in-process ones (the architecture is
// "inherently distributed and scalable").
//
// The wire protocol multiplexes synchronous calls (with
// sequence-numbered replies) and asynchronous notifications over one
// persistent connection per remote peer link, framed by the binary
// codec (codec.go) after a one-line hello. Call payloads must be
// registered by the owning packages through RegisterWirePayload (see
// oasis.RegisterWireTypes).
//
// Outbound traffic goes through a per-connection msgWriter. It is
// pipelined: callers enqueue under a leaf mutex and a single
// flusher goroutine encodes and flushes, so concurrent calls and
// notification bursts interleave on the wire instead of convoying on a
// lock held across encode+flush, and bursts coalesce into one syscall.
// A failed encode or flush is never silent: every undelivered
// notification counts as dropped on the home network (heartbeat loss
// detection then sees the gap, §4.10) and the connection is torn down
// so the next use reconnects.
//
// Every wait on the far side is bounded here (a call's reply by reap,
// a socket write by the writer's deadline, dial and hello together), so
// nothing above the bus needs a deadline of its own. A call to an
// endpoint on this very Network is a function call, unbounded by
// design: one that never returns is our own deadlock, not a slow peer.

// wireBufSize is the I/O buffer size per TCP link; notification
// messages are a few hundred bytes, so one buffer holds a large burst.
const wireBufSize = 32 << 10

// CallDeadline is how long a call over a TCP link may stay unanswered,
// measured on the home network's clock, and the period of the wall-clock
// write deadline kept on every link's socket.
const CallDeadline = 10 * time.Second

// ErrCallDeadline is returned (wrapped) for a call over a TCP link that
// the peer accepted and did not answer within CallDeadline. The request
// may still execute; only the wait is abandoned.
var ErrCallDeadline = errors.New("bus: call deadline exceeded")

// WireBinary names the wire format of a connected TCP link
// (RemoteWireFormat): the hand-rolled tagged codec in codec.go.
const WireBinary = "binary"

type wireMsg struct {
	Kind  string // "call", "reply", "notify"; "deadline" never leaves the process (reap)
	Seq   uint64
	From  string
	To    string
	Op    string
	Arg   any
	Err   string
	Note  event.Notification
	IsNil bool // reply payload was nil
}

// ---- connect-time hello ----
//
// Every connection opens with one fixed version line from the dialling
// side, echoed by the server; binary frames follow. Both ends read
// exactly len(wireHello) bytes straight off the socket, so a peer that
// never sends a newline cannot make the reader buffer more than that.
// A server hangs up on anything else; a client fails the dial.
const wireHello = "OASIS1 bin\n"

// readHello consumes the far side's hello line.
func readHello(conn net.Conn) error {
	var line [len(wireHello)]byte
	if _, err := io.ReadFull(conn, line[:]); err != nil {
		return fmt.Errorf("bus: reading hello: %w", err)
	}
	if string(line[:]) != wireHello {
		return fmt.Errorf("bus: bad hello %q", line[:])
	}
	return nil
}

// RemoteWireFormat reports the wire format of the live connection to
// the named remote peer: WireBinary, or "" when the name is not a
// connected remotePeer link.
func (n *Network) RemoteWireFormat(name string) string {
	n.peersMu.RLock()
	link := n.remotes[name]
	n.peersMu.RUnlock()
	if p, ok := link.(*remotePeer); ok {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.conn != nil {
			return WireBinary
		}
	}
	return ""
}

// ---- outbound writer ----

// errWriterDead reports that a message writer had already failed:
// nothing passed to enqueue was accepted, and the caller owns the drop
// accounting for the batch.
var errWriterDead = errors.New("bus: connection lost")

// msgWriter serializes outbound traffic for one TCP connection.
//
// enqueue appends to a queue under a leaf mutex and returns; a single
// flusher drains the queue, encoding each message and flushing the
// socket once per drained batch.
//
// The first failed encode or flush kills the writer for good: a
// partial frame may be on the wire, so the stream cannot be trusted.
// Death closes the socket — waking the connection's read loop, which
// fails outstanding calls — and counts every accepted-but-undelivered
// notification exactly once through onDrop. pendingNotes carries that
// invariant: it counts notify messages accepted into the pipeline and
// not yet flushed, so whichever path kills the writer first owns them.
//
// A peer that stops reading is such a failure: the flusher pushes the
// socket's write deadline out to two bounds ahead whenever less than
// one remains (one SetWriteDeadline per bound, not per flush), so a
// blocked write fails after one to two bounds.
type msgWriter struct {
	conn   net.Conn
	enc    *WireEnc  // over the connection's bufio.Writer; Flush pushes to the socket
	onDrop func(int) // counts lost notifications; must use atomics only (called under wr.mu)

	bound   time.Duration // CallDeadline; a field so a test can wait less
	writeBy time.Time     // the socket's write deadline; the flusher's alone

	mu           sync.Mutex
	q            []wireMsg
	spare        []wireMsg // drained batch recycled as the next queue
	pendingNotes int       // notify messages accepted but not yet flushed
	flushing     bool      // a flushLoop goroutine is running
	dead         bool
}

func newMsgWriter(conn net.Conn, onDrop func(int)) *msgWriter {
	return &msgWriter{conn: conn, enc: NewWireEnc(bufio.NewWriterSize(conn, wireBufSize)), onDrop: onDrop, bound: CallDeadline}
}

// enqueue accepts one call or reply for the wire. The only error is
// errWriterDead: nothing was accepted (safe to retry).
func (wr *msgWriter) enqueue(msg wireMsg) error {
	wr.mu.Lock()
	if wr.dead {
		wr.mu.Unlock()
		return errWriterDead
	}
	wr.q = append(wr.q, msg)
	wr.flushIfIdleLocked()
	return nil
}

// enqueueNotes accepts a notification burst for the wire, building the
// messages in place in the queue. The only error is errWriterDead:
// nothing was accepted, and the caller owns the drop accounting for the
// burst.
func (wr *msgWriter) enqueueNotes(from, to string, notes []event.Notification) error {
	wr.mu.Lock()
	if wr.dead {
		wr.mu.Unlock()
		return errWriterDead
	}
	// Slots past len(wr.q) are zero — fresh from the allocator, or
	// cleared by the flush that recycled the array — so only the fields
	// a notify carries are written.
	at := len(wr.q)
	wr.q = slices.Grow(wr.q, len(notes))[:at+len(notes)]
	for i := range notes {
		m := &wr.q[at+i]
		m.Kind, m.From, m.To, m.Note = "notify", from, to, notes[i]
	}
	wr.pendingNotes += len(notes)
	wr.flushIfIdleLocked()
	return nil
}

// flushIfIdleLocked releases wr.mu, which the caller holds with its
// messages queued, and flushes unless a flusher is already running.
func (wr *msgWriter) flushIfIdleLocked() {
	if wr.flushing {
		wr.mu.Unlock()
		return
	}
	wr.flushing = true
	wr.mu.Unlock()
	// Combining: the caller that found the writer idle drains one batch
	// itself — usually just its own message, with none of the latency of
	// scheduling a flusher goroutine. If traffic piled up behind it, the
	// rest goes to a background flusher so no caller flushes forever.
	if wr.flushBatch() {
		go wr.flushLoop()
	}
}

// dieLocked kills the writer; caller holds wr.mu. pendingNotes —
// everything the pipeline accepted and has not flushed — counts as
// dropped and zeroes out, so no later death path counts it again.
func (wr *msgWriter) dieLocked() {
	if wr.dead {
		return
	}
	wr.dead = true
	lost := wr.pendingNotes
	wr.pendingNotes = 0
	wr.q = nil
	_ = wr.conn.Close()
	if lost > 0 {
		wr.onDrop(lost)
	}
}

// kill tears the writer down from outside (read-loop death, link
// teardown); queued-but-undelivered notifications count as dropped.
func (wr *msgWriter) kill() {
	wr.mu.Lock()
	wr.dieLocked()
	wr.mu.Unlock()
}

// flushLoop drains the queue until it is empty or the writer dies.
// Exactly one flusher runs at a time (the flushing flag); it encodes
// outside wr.mu so enqueuers never wait on the socket.
func (wr *msgWriter) flushLoop() {
	for wr.flushBatch() {
	}
}

// flushBatch drains and flushes one batch. It returns true while the
// queue still has messages — the caller is still the flusher and must
// keep going — and false once the queue is empty or the writer died
// (the flushing flag has been released).
func (wr *msgWriter) flushBatch() bool {
	wr.mu.Lock()
	if wr.dead || len(wr.q) == 0 {
		wr.flushing = false
		wr.mu.Unlock()
		return false
	}
	// One flusher runs at a time and each settles its notes before the
	// next batch is taken, so every pending note is in this batch.
	batch, flushedNotes := wr.q, wr.pendingNotes
	wr.q = wr.spare
	wr.spare = nil
	wr.mu.Unlock()
	// Socket deadlines are wall-clock whatever clock the network runs on.
	if now := clock.Real().Now(); wr.writeBy.Sub(now) < wr.bound {
		wr.writeBy = now.Add(2 * wr.bound)
		// Fails only on a closed socket, and then so does the write.
		_ = wr.conn.SetWriteDeadline(wr.writeBy)
	}
	var err error
	for i := range batch {
		if err = encodeWireMsg(wr.enc, &batch[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = wr.enc.Flush()
	}
	// Zero the drained slots so the recycled array does not pin
	// payloads, then hand the array back as the next queue.
	clear(batch)
	wr.mu.Lock()
	defer wr.mu.Unlock()
	if err != nil {
		wr.dieLocked() // the batch is still in pendingNotes
	}
	if wr.dead {
		wr.flushing = false
		return false
	}
	wr.pendingNotes -= flushedNotes
	wr.spare = batch[:0]
	wr.flushing = len(wr.q) > 0
	return wr.flushing
}

// remoteLink routes traffic for one remote name.
type remoteLink interface {
	call(from, to, op string, arg any) (any, error)
	send(from, to string, note event.Notification)
	sendBatch(from, to string, notes []event.Notification)
}

// backchannel is a notify-only route back to a peer that dialled us:
// asynchronous notifications (Modified events, heartbeats) flow down
// the same TCP connection its calls came up on, so a dialling service
// needs no listener of its own.
type backchannel struct {
	wr *msgWriter // the serving connection's writer
}

func (b *backchannel) call(from, to, op string, arg any) (any, error) {
	return nil, fmt.Errorf("%w: %s (notify-only back-channel)", ErrUnreachable, to)
}

func (b *backchannel) send(from, to string, note event.Notification) {
	b.sendBatch(from, to, []event.Notification{note})
}

func (b *backchannel) sendBatch(from, to string, notes []event.Notification) {
	if err := b.wr.enqueueNotes(from, to, notes); err != nil {
		// Nothing was accepted, so the burst is ours to count.
		b.wr.onDrop(len(notes))
	}
}

// remotePeer is the client side of a TCP link to another Network.
type remotePeer struct {
	addr string
	home *Network // dispatches inbound back-channel notifications

	mu      sync.Mutex
	conn    net.Conn
	wr      *msgWriter
	closed  bool // CloseRemotes: no reconnection
	nextSeq uint64
	waiting map[uint64]wireWaiter
	reaping bool // a reap goroutine is watching the deadlines in waiting

	// Inbound back-channel notifications are delivered by a pump
	// goroutine, never on the read loop itself: a delivery callback may
	// issue a synchronous call over this very link (the auto-resync a
	// reviving heartbeat triggers does exactly that), and the reply can
	// only be read by the read loop.
	inMu      sync.Mutex
	inQ       []wireMsg
	inPumping bool
}

// wireWaiter is one outstanding call. The connection tag keeps a dying
// read loop from failing calls already re-issued on a successor
// connection; deadline is when reap gives the call up.
type wireWaiter struct {
	ch       chan wireMsg
	conn     net.Conn
	deadline time.Time // home clock
}

// callChans recycles reply channels across calls. A waiting channel
// receives exactly one message — whoever removes the waiter from the
// map (reply, connection loss or deadline) owns the single send — so
// once the caller has read it, the channel is empty and safe to reuse.
// The pre-send failure path never reads and never recycles: a racing
// connection loss may still have a message in flight there. Nor does
// a call that timed out: that path is rare enough to leave to the GC.
var callChans = sync.Pool{New: func() any { return make(chan wireMsg, 1) }}

// ServeTCP exports this network's registered endpoints on the listener.
// It blocks until the listener closes; run it in a goroutine and close
// the listener to stop.
func (n *Network) ServeTCP(ln net.Listener) error {
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.serveConn(conn)
		}()
	}
}

func (n *Network) serveConn(conn net.Conn) {
	defer conn.Close()
	if err := readHello(conn); err != nil {
		return
	}
	if _, err := conn.Write([]byte(wireHello)); err != nil {
		return
	}
	dec := NewWireDec(bufio.NewReaderSize(conn, wireBufSize))
	wr := newMsgWriter(conn, n.dropNote)
	defer wr.kill()
	workers := callWorkers{net: n, wr: wr, calls: make(chan wireMsg)}
	defer close(workers.calls)
	var backNames []string
	defer func() {
		// Drop back-channels routed over this connection.
		n.peersMu.Lock()
		for _, name := range backNames {
			if bc, ok := n.remotes[name].(*backchannel); ok && bc.wr == wr {
				delete(n.remotes, name)
			}
		}
		n.peersMu.Unlock()
	}()
	// settled is the last caller name found routed for good; a
	// connection nearly always carries one name, so the route tables
	// are consulted once, not per message.
	var settled string
	for {
		var msg wireMsg
		if err := decodeWireMsg(dec, &msg); err != nil {
			return
		}
		// The caller is reachable for notifications over this very
		// connection; remember that unless it is already known. Check
		// under the read lock and only upgrade (re-checking) to install
		// a new back-channel.
		if msg.From != "" && msg.From != settled {
			n.peersMu.RLock()
			_, local := n.peers[msg.From]
			link, known := n.remotes[msg.From]
			n.peersMu.RUnlock()
			if !local && !known {
				n.peersMu.Lock()
				_, local = n.peers[msg.From]
				link, known = n.remotes[msg.From]
				if !local && !known {
					if n.remotes == nil {
						n.remotes = make(map[string]remoteLink)
					}
					link = &backchannel{wr: wr}
					n.remotes[msg.From] = link
					backNames = append(backNames, msg.From)
				}
				n.peersMu.Unlock()
			}
			// Another connection's back-channel dies with that
			// connection, and this one must then take the name over, so
			// that route alone is looked up again next time.
			if bc, back := link.(*backchannel); local || !back || bc.wr == wr {
				settled = msg.From
			}
		}
		switch msg.Kind {
		case "call":
			select {
			case workers.calls <- msg:
			default:
				go workers.work(msg)
			}
		case "notify":
			n.Send(msg.From, msg.To, msg.Note)
		}
	}
}

// maxParkedWorkers bounds the call workers a served connection keeps
// waiting between calls. Busy workers are not bounded: a blocked handler
// must never hold up the calls behind it.
const maxParkedWorkers = 8

// callWorkers serves one connection's inbound calls off its read loop,
// so slow handlers never stall it and fast replies overtake them, on
// goroutines that outlive the call: a finished worker parks for the
// next one, and only a call that finds none parked pays for a new
// goroutine and the stack it grows inside the handler. The read loop
// closes calls when the connection ends, which sends the workers home.
type callWorkers struct {
	net    *Network
	wr     *msgWriter
	calls  chan wireMsg // unbuffered: a send lands only in a parked worker
	parked atomic.Int32
}

func (cw *callWorkers) work(msg wireMsg) {
	for open := true; open; {
		res, err := cw.net.Call(msg.From, msg.To, msg.Op, msg.Arg)
		reply := wireMsg{Kind: "reply", Seq: msg.Seq, Arg: res, IsNil: res == nil}
		if err != nil {
			reply.Err = err.Error()
		}
		// A dead writer means the connection is going; the caller learns
		// of it from its own read loop.
		_ = cw.wr.enqueue(reply)
		if cw.parked.Add(1) > maxParkedWorkers {
			cw.parked.Add(-1)
			return
		}
		msg, open = <-cw.calls
		cw.parked.Add(-1)
	}
}

// AddRemote routes the given peer name over a TCP link to addr: calls
// and notifications to that name cross the socket; the remote network
// must be serving (ServeTCP) and have the name registered.
func (n *Network) AddRemote(name, addr string) error {
	p := &remotePeer{addr: addr, home: n, waiting: make(map[uint64]wireWaiter)}
	p.mu.Lock()
	err := p.connectLocked()
	p.mu.Unlock()
	if err != nil {
		return err
	}
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	if _, dup := n.peers[name]; dup {
		return fmt.Errorf("bus: name %q already registered", name)
	}
	if n.remotes == nil {
		n.remotes = make(map[string]remoteLink)
	}
	n.remotes[name] = p
	return nil
}

// CloseRemotes shuts down outgoing TCP links.
func (n *Network) CloseRemotes() {
	n.peersMu.Lock()
	remotes := n.remotes
	n.remotes = nil
	n.peersMu.Unlock()
	for _, link := range remotes {
		if p, ok := link.(*remotePeer); ok {
			p.mu.Lock()
			p.closed = true
			p.breakLocked()
			p.mu.Unlock()
		}
	}
}

// connectLocked dials the peer, exchanges hellos, and installs the
// pipelined writer; caller holds p.mu. A peer that answers anything but
// the hello fails the dial, and so does one that has not answered it a
// CallDeadline from now: every caller of the link waits behind p.mu.
func (p *remotePeer) connectLocked() error {
	by := clock.Real().Now().Add(CallDeadline)
	conn, err := (&net.Dialer{Deadline: by}).Dial("tcp", p.addr)
	if err != nil {
		return err
	}
	// Setting a deadline fails only on a closed socket, as the hello
	// then does.
	_ = conn.SetDeadline(by)
	if _, err = conn.Write([]byte(wireHello)); err == nil {
		err = readHello(conn)
	}
	if err != nil {
		_ = conn.Close()
		return err
	}
	_ = conn.SetDeadline(time.Time{})
	p.conn = conn
	p.wr = newMsgWriter(conn, p.home.dropNote)
	go p.readLoop(conn, NewWireDec(bufio.NewReaderSize(conn, wireBufSize)), p.wr)
	return nil
}

// ensureConnLocked reconnects a link marked broken by an earlier wire
// failure; caller holds p.mu.
func (p *remotePeer) ensureConnLocked() error {
	if p.conn != nil {
		return nil
	}
	if p.closed {
		return fmt.Errorf("bus: link closed")
	}
	return p.connectLocked()
}

// breakLocked tears the connection down after a wire error so the next
// use reconnects; caller holds p.mu. Killing the writer closes the
// socket, which wakes the read loop; it fails the calls outstanding on
// this connection.
func (p *remotePeer) breakLocked() {
	if p.wr != nil {
		p.wr.kill()
	}
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
	}
	p.wr = nil
}

func (p *remotePeer) readLoop(conn net.Conn, dec *WireDec, wr *msgWriter) {
	for {
		var msg wireMsg
		if err := decodeWireMsg(dec, &msg); err != nil {
			// This connection is done: clear it if it is still the
			// live one, kill its writer (accounting queued
			// notifications as dropped), and fail the calls that went
			// out on it. Calls tagged with a successor connection are
			// left alone. Channels are notified after releasing the
			// lock: locks are leaves here.
			p.mu.Lock()
			if p.conn == conn {
				p.conn = nil
				p.wr = nil
			}
			var failed []chan wireMsg
			for seq, wait := range p.waiting {
				if wait.conn == conn {
					delete(p.waiting, seq)
					failed = append(failed, wait.ch)
				}
			}
			p.mu.Unlock()
			wr.kill()
			for _, ch := range failed {
				ch <- wireMsg{Kind: "reply", Err: "bus: connection lost"}
			}
			return
		}
		if msg.Kind == "notify" {
			// Back-channel delivery (figure 4.8's event notification
			// arriving over the link we dialled).
			if p.home != nil {
				p.enqueueInbound(msg)
			}
			continue
		}
		if msg.Kind != "reply" {
			continue
		}
		p.mu.Lock()
		wait, ok := p.waiting[msg.Seq]
		delete(p.waiting, msg.Seq)
		p.mu.Unlock()
		if ok {
			wait.ch <- msg
		}
	}
}

// enqueueInbound queues one inbound notification and ensures a pump is
// running. Only the read loop enqueues, so queue order is wire order,
// and the pump clears its running flag only after its last delivery
// completed — two pumps never run at once, so delivery order per link
// equals arrival order (§4.10 gap detection depends on it).
func (p *remotePeer) enqueueInbound(msg wireMsg) {
	p.inMu.Lock()
	p.inQ = append(p.inQ, msg)
	start := !p.inPumping
	if start {
		p.inPumping = true
	}
	p.inMu.Unlock()
	if start {
		go p.pumpInbound()
	}
}

func (p *remotePeer) pumpInbound() {
	for {
		p.inMu.Lock()
		if len(p.inQ) == 0 {
			p.inPumping = false
			p.inMu.Unlock()
			return
		}
		msg := p.inQ[0]
		// Zero the consumed slot so the backing array does not retain
		// the notification payload, and drop the array entirely once
		// drained — a sustained storm otherwise pins every message
		// ever queued.
		p.inQ[0] = wireMsg{}
		p.inQ = p.inQ[1:]
		if len(p.inQ) == 0 {
			p.inQ = nil
		}
		p.inMu.Unlock()
		p.home.Send(msg.From, msg.To, msg.Note)
	}
}

// reap gives up the calls whose deadline has passed, as the read loop
// does for a lost connection: taking a waiter out of the table confers
// the one send on its channel, so a reply arriving later finds no
// waiter and is dropped. One reap runs per link while calls are
// outstanding (startCall starts it), asleep on the home clock until the
// earliest deadline, and leaves when it wakes to an empty table: no
// call pays for a timer, a channel or a goroutine.
func (p *remotePeer) reap() {
	for {
		now := p.home.clk.Now()
		var next time.Time
		var expired []chan wireMsg
		p.mu.Lock()
		for seq, wait := range p.waiting {
			switch {
			case !wait.deadline.After(now):
				delete(p.waiting, seq)
				expired = append(expired, wait.ch)
			case next.IsZero() || wait.deadline.Before(next):
				next = wait.deadline
			}
		}
		p.reaping = !next.IsZero()
		p.mu.Unlock()
		for _, ch := range expired {
			ch <- wireMsg{Kind: "deadline"}
		}
		if next.IsZero() {
			return
		}
		<-p.home.clk.After(next.Sub(now))
	}
}

// call issues one synchronous request, once: a dial or enqueue failure
// is ErrUnreachable, and once the request is accepted for the wire a
// lost connection or a passed deadline fails the call — the caller
// decides whether asking again is safe.
func (p *remotePeer) call(from, to, op string, arg any) (any, error) {
	ch, err := p.startCall(from, to, op, arg)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, err)
	}
	reply := <-ch
	if reply.Kind == "deadline" {
		return nil, fmt.Errorf("%w: %s left %q unanswered for %v", ErrCallDeadline, to, op, CallDeadline)
	}
	callChans.Put(ch)
	if reply.Err != "" {
		return nil, errors.New(reply.Err)
	}
	if reply.IsNil {
		return nil, nil
	}
	return reply.Arg, nil
}

// startCall dials if needed and hands one request to the writer,
// returning the reply channel. Errors here are pre-send: either the
// dial failed or the writer was already dead and accepted nothing. The
// enqueue happens outside p.mu — the writer has its own leaf lock — so
// concurrent calls pipeline.
func (p *remotePeer) startCall(from, to, op string, arg any) (chan wireMsg, error) {
	deadline := p.home.clk.Now().Add(CallDeadline)
	p.mu.Lock()
	if err := p.ensureConnLocked(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	conn, wr := p.conn, p.wr
	p.nextSeq++
	seq := p.nextSeq
	ch := callChans.Get().(chan wireMsg)
	p.waiting[seq] = wireWaiter{ch: ch, conn: conn, deadline: deadline}
	if !p.reaping {
		p.reaping = true
		go p.reap()
	}
	p.mu.Unlock()

	if err := wr.enqueue(wireMsg{Kind: "call", Seq: seq, From: from, To: to, Op: op, Arg: arg}); err != nil {
		p.mu.Lock()
		delete(p.waiting, seq)
		if p.wr == wr {
			p.breakLocked()
		}
		p.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

func (p *remotePeer) send(from, to string, note event.Notification) {
	p.sendBatch(from, to, []event.Notification{note})
}

// sendBatch hands a notification burst to the writer, which flushes
// the socket once per drained batch. A wire failure loses the tail of
// the burst: each lost notification counts as dropped and the link is
// marked for reconnection, so the failure is visible to heartbeat loss
// detection rather than silent.
func (p *remotePeer) sendBatch(from, to string, notes []event.Notification) {
	p.mu.Lock()
	if err := p.ensureConnLocked(); err != nil {
		p.mu.Unlock()
		p.home.dropNote(len(notes))
		return
	}
	wr := p.wr
	p.mu.Unlock()

	if err := wr.enqueueNotes(from, to, notes); err != nil {
		// Nothing was accepted, so the burst is ours to count.
		p.home.dropNote(len(notes))
		p.mu.Lock()
		if p.wr == wr {
			p.breakLocked()
		}
		p.mu.Unlock()
	}
}
