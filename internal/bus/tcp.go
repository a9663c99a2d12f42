package bus

import (
	"bufio"
	"errors"
	"expvar"
	"fmt"
	"io"
	"maps"
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
// registered by the owning packages through RegisterPayload (see
// oasis.RegisterWireTypes).
//
// Outbound traffic goes through a per-connection msgWriter. It is
// pipelined: callers enqueue under a leaf mutex and a single
// flusher goroutine encodes and flushes, so concurrent calls and
// notification bursts interleave on the wire instead of convoying on a
// lock held across encode+flush, and bursts coalesce into one syscall.
// A failed encode or flush is never silent: every undelivered
// notification counts as dropped on the home network (heartbeat loss
// detection then sees the gap, §4.10) and the connection is torn down.
// A notification send never waits on the link (notify): it queues on
// the live writer or counts dropped, and a -remote link redials on a
// goroutine of its own; a call, which waits for its reply anyway,
// dials inline, or waits for the dial already under way and takes its
// outcome (ensureConnLocked).
//
// A served call runs where it cannot hold the link up: one its
// endpoint's op table declares never to wait (Op.NeverWaits) on the
// connection's read loop, which flushes the reply before it reads
// again, unless more input is already buffered behind it; every other
// on a parked worker (callWorkers). A call to a row of an op table
// decodes into a block the connection keeps and answers from it (Op
// states the rule for when the block is reused).
//
// An inbound notification is delivered one way on both ends of a
// link: inline on the read loop that decoded it, serveConn's and a
// dialled link's alike, so a link's notes reach the endpoint in the
// order they crossed it. An endpoint's Deliver must therefore never
// wait on a peer: the reply it waited for could only be read by the
// loop it holds. It may wait for its own disk (a journal under
// SyncAlways), which holds that link's later frames meanwhile.
//
// Every wait on the far side is bounded here (a call's reply by reap,
// a socket write by the writer's deadline, dial and hello together), so
// nothing above the bus needs a deadline of its own. A call to an
// endpoint on this very Network is a function call, unbounded by
// design: one that never returns is our own deadlock, not a slow peer.

// wireBufSize is the size of a TCP link's write buffer and of its
// decoder's read window (WireDec); notification messages are a few
// hundred bytes, so one buffer holds a large burst.
const wireBufSize = 32 << 10

// maxPendingNotes bounds the notifications a link's writer holds
// accepted and unflushed. It is the most entries one resync reply may
// carry: a watcher further behind than that catches up more cheaply by
// failing safe and resyncing (§4.10) than by reading the backlog, so a
// burst that would pass the bound kills the writer instead.
const maxPendingNotes = maxWireCount

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
	// call is a served call's block (Op): a call's decoded argument, and
	// the reply a reply to it encodes; nil with the payload in Arg.
	call servedCall
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
	if p, ok := link.(*remotePeer); ok && p.writer() != nil {
		return WireBinary
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
// notification exactly once in dropped. pendingNotes carries that
// invariant: it counts notify messages accepted into the pipeline and
// not yet flushed, so whichever path kills the writer first owns them.
//
// A peer that stops reading is such a failure: the flusher pushes the
// socket's write deadline out to two bounds ahead whenever less than
// one remains (one SetWriteDeadline per bound, not per flush), so a
// blocked write fails after one to two bounds. Before that, a burst
// that would take pendingNotes past maxNotes kills the writer at once.
type msgWriter struct {
	conn    net.Conn
	enc     *WireEnc    // over the connection's bufio.Writer; Flush pushes to the socket
	dropped *expvar.Int // the network's count of lost notifications

	bound    time.Duration // CallDeadline; a field so a test can wait less
	maxNotes int           // maxPendingNotes; a field so a test can queue less
	writeBy  time.Time     // the socket's write deadline; the flusher's alone

	mu           sync.Mutex
	q            []wireMsg
	spare        []wireMsg // drained batch recycled as the next queue
	pendingNotes int       // notify messages accepted but not yet flushed
	flushing     bool      // a flushLoop goroutine is running
	dead         bool
}

func newMsgWriter(conn net.Conn, dropped *expvar.Int) *msgWriter {
	return &msgWriter{conn: conn, enc: NewWireEnc(bufio.NewWriterSize(conn, wireBufSize)), dropped: dropped, bound: CallDeadline, maxNotes: maxPendingNotes}
}

// enqueue accepts one call or reply for the wire, and reports whether
// it was encoded before enqueue returned: the writer was idle, so the
// caller flushed it (flushIfIdleLocked). The only error is
// errWriterDead: nothing was accepted (safe to retry).
func (wr *msgWriter) enqueue(msg wireMsg) (encoded bool, err error) {
	wr.mu.Lock()
	if wr.dead {
		wr.mu.Unlock()
		return false, errWriterDead
	}
	wr.q = append(wr.q, msg)
	return wr.flushIfIdleLocked(), nil
}

// enqueueNotes accepts a notification burst for the wire, building the
// messages in place in the queue, and starts the flusher goroutine if
// none is running: a signaller never writes to the socket itself, so a
// watcher that stops reading cannot hold it (a call or a reply still
// flushes inline, enqueue). The only error is errWriterDead: nothing
// was accepted, and the caller owns the drop accounting for the burst.
// A burst that would queue more than maxNotes kills the writer.
func (wr *msgWriter) enqueueNotes(from, to string, notes []event.Notification) error {
	wr.mu.Lock()
	if !wr.dead && wr.pendingNotes+len(notes) > wr.maxNotes {
		wr.dieLocked()
	}
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
	if !wr.flushing {
		wr.flushing = true
		go wr.flushLoop()
	}
	wr.mu.Unlock()
	return nil
}

// flushIfIdleLocked releases wr.mu, which the caller holds with its
// messages queued, and flushes unless a flusher is already running. It
// reports whether the caller flushed: then the batch it drained held
// its messages, and they have been encoded — or the writer died, and
// never will be.
func (wr *msgWriter) flushIfIdleLocked() bool {
	if wr.flushing {
		wr.mu.Unlock()
		return false
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
	return true
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
	wr.dropped.Add(int64(lost))
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

// remoteLink routes traffic for one remote name: calls by call, and
// notifications through its writer (notify).
type remoteLink interface {
	call(from, to, op string, arg any) (any, error)
	writer() *msgWriter // the live connection's, nil between connections
}

// notify hands a notification burst for a remote name to its link's
// live writer, whose flusher goroutine writes it: the sender takes no
// link lock, never dials and never writes to the socket. A burst no
// writer takes — there is none between connections, or it has died —
// is lost and counted dropped; the watcher sees the gap in the
// heartbeat sequence, fails safe and resyncs (§4.10), so an issuer
// never waits on a watcher's link. A -remote link then redials on its
// own (remotePeer.redial).
func (n *Network) notify(link remoteLink, from, to string, notes []event.Notification) {
	if wr := link.writer(); wr != nil && wr.enqueueNotes(from, to, notes) == nil {
		return
	}
	n.droppedCount.Add(int64(len(notes)))
	if p, ok := link.(*remotePeer); ok {
		p.redial()
	}
}

// pendingNotes is Vars' "pending_notes": per destination name, the
// notifications its TCP link's writer has accepted and not yet flushed.
// A watcher that stops reading fills this queue, up to maxPendingNotes.
func (n *Network) pendingNotes() any {
	n.peersMu.RLock()
	links := maps.Clone(n.remotes)
	n.peersMu.RUnlock()
	pending := make(map[string]int, len(links))
	for name, link := range links {
		if wr := link.writer(); wr != nil {
			wr.mu.Lock()
			pending[name] = wr.pendingNotes
			wr.mu.Unlock()
		}
	}
	return pending
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

func (b *backchannel) writer() *msgWriter { return b.wr }

// remotePeer is the client side of a TCP link to another Network.
type remotePeer struct {
	addr string
	home *Network // dispatches inbound back-channel notifications

	mu        sync.Mutex
	conn      net.Conn
	wr        atomic.Pointer[msgWriter] // written under mu; writer() reads it without
	closed    bool                      // CloseRemotes: no reconnection
	nextSeq   uint64
	dialing   *dialAttempt // the dial under way, nil if none
	waiting   map[uint64]wireWaiter
	reaping   bool        // a reap goroutine is watching the deadlines in waiting
	redialing atomic.Bool // a redial goroutine is running
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
	frames := servedFrames{net: n, dec: NewWireDec(conn)}
	wr := newMsgWriter(conn, &n.droppedCount)
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
		if err := frames.next(&msg); err != nil {
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
			// A call that never waits is answered here, before the next
			// read, unless more input is already buffered behind it: then
			// the calls pipelined on this link are served side by side.
			// Its block is the connection's again once this loop has
			// encoded the reply; otherwise the block, like a worker's,
			// stays with the message.
			c := msg.call
			if c != nil && frames.dec.Buffered() == 0 && c.neverWaits() {
				if workers.serve(msg) {
					frames.keep(c)
				}
				continue
			}
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

// callWorkers serves the calls of one connection that may wait off its
// read loop, so slow handlers never stall it and fast replies overtake
// them, on goroutines that outlive the call: a finished worker parks
// for the next one, and only a call that finds none parked pays for a
// new goroutine and the stack it grows inside the handler. The read
// loop closes calls when the connection ends, which sends the workers
// home.
type callWorkers struct {
	net    *Network
	wr     *msgWriter
	calls  chan wireMsg // unbuffered: a send lands only in a parked worker
	parked atomic.Int32
}

// serve answers one call and hands the reply to the writer, which
// flushes it at once if no flush is under way. It reports whether the
// reply will never be encoded after serve returns — encoded already, or
// refused by a dead writer — so that nothing reads the call's block
// any more.
func (cw *callWorkers) serve(msg wireMsg) bool {
	reply := wireMsg{Kind: "reply", Seq: msg.Seq}
	var err error
	switch c := msg.call; {
	case c == nil:
		var res any
		res, err = cw.net.Call(msg.From, msg.To, msg.Op, msg.Arg)
		reply.Arg, reply.IsNil = res, res == nil
	case cw.net.linkSevered(msg.From, msg.To):
		err = fmt.Errorf("%w: %s -> %s", ErrUnreachable, msg.From, msg.To)
		reply.IsNil = true
	default:
		err = c.serve(msg.From)
		reply.call = c
	}
	if err != nil {
		reply.Err = err.Error()
	}
	// A dead writer means the connection is going; the caller learns
	// of it from its own read loop.
	encoded, err := cw.wr.enqueue(reply)
	return encoded || err != nil
}

func (cw *callWorkers) work(msg wireMsg) {
	for open := true; open; {
		cw.serve(msg)
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
	err := p.ensureConnLocked()
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

// dialHello dials addr and exchanges hellos. A peer that answers
// anything but the hello fails the dial, and so does one that has not
// answered it a CallDeadline from now.
func dialHello(addr string) (net.Conn, error) {
	by := clock.Real().Now().Add(CallDeadline)
	conn, err := (&net.Dialer{Deadline: by}).Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Setting a deadline fails only on a closed socket, as the hello
	// then does.
	_ = conn.SetDeadline(by)
	if _, err = conn.Write([]byte(wireHello)); err == nil {
		err = readHello(conn)
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// errLinkClosed refuses a dial on a link CloseRemotes shut.
var errLinkClosed = errors.New("bus: link closed")

// dialAttempt is one dial under way on a link: done closes once it has
// installed its connection or failed with err.
type dialAttempt struct {
	done chan struct{}
	err  error
}

// ensureConnLocked gives a link without a connection one; caller holds
// p.mu, which is released for the dial and held again on return. One
// dial runs at a time, outside p.mu: a caller that finds one under way
// waits for it and takes its outcome, error included, so the calls
// queued on a dead peer wait out one dial, not one each. A call runs it
// inline; a notification send only through redial.
func (p *remotePeer) ensureConnLocked() error {
	for p.conn == nil {
		if p.closed {
			return errLinkClosed
		}
		if a := p.dialing; a != nil {
			p.mu.Unlock()
			<-a.done
			p.mu.Lock()
			if a.err != nil {
				return a.err
			}
			continue
		}
		a := &dialAttempt{done: make(chan struct{})}
		p.dialing = a
		p.mu.Unlock()
		conn, err := dialHello(p.addr)
		p.mu.Lock()
		p.dialing = nil
		if err == nil && p.closed {
			_ = conn.Close()
			err = errLinkClosed
		}
		if err == nil {
			p.conn = conn
			p.wr.Store(newMsgWriter(conn, &p.home.droppedCount))
			go p.readLoop(conn, NewWireDec(conn), p.wr.Load())
		}
		a.err = err
		close(a.done)
		if err != nil {
			return err
		}
	}
	return nil
}

// breakLocked tears the connection down after a wire error so the next
// use reconnects; caller holds p.mu. Killing the writer closes the
// socket, which wakes the read loop; it fails the calls outstanding on
// this connection.
func (p *remotePeer) breakLocked() {
	if wr := p.wr.Swap(nil); wr != nil {
		wr.kill() // the writer's socket is p.conn
	}
	p.conn = nil
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
				p.wr.Store(nil)
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
		switch msg.Kind {
		case "notify":
			// Back-channel delivery (figure 4.8's event notification
			// arriving over the link we dialled), inline as serveConn
			// delivers: a delivery calls no peer, so the replies behind
			// it are read as soon as it returns.
			p.home.Send(msg.From, msg.To, msg.Note)
		case "reply":
			p.mu.Lock()
			wait, ok := p.waiting[msg.Seq]
			delete(p.waiting, msg.Seq)
			p.mu.Unlock()
			if ok {
				wait.ch <- msg
			}
		}
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
	conn, wr := p.conn, p.wr.Load()
	p.nextSeq++
	seq := p.nextSeq
	ch := callChans.Get().(chan wireMsg)
	p.waiting[seq] = wireWaiter{ch: ch, conn: conn, deadline: deadline}
	if !p.reaping {
		p.reaping = true
		go p.reap()
	}
	p.mu.Unlock()

	if _, err := wr.enqueue(wireMsg{Kind: "call", Seq: seq, From: from, To: to, Op: op, Arg: arg}); err != nil {
		p.mu.Lock()
		delete(p.waiting, seq)
		if p.wr.Load() == wr {
			p.breakLocked()
		}
		p.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// writer takes no p.mu: a send never waits on the link.
func (p *remotePeer) writer() *msgWriter { return p.wr.Load() }

// redial reconnects a link a notification send found without a live
// writer, on a goroutine of its own and one at a time, so no sender
// waits on the dial. A writer that died is cleared by its read loop
// once the socket closes; until then there is nothing to redial, and a
// later send tries again. A closed link (CloseRemotes) is not dialled.
func (p *remotePeer) redial() {
	if !p.redialing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer p.redialing.Store(false)
		p.mu.Lock()
		defer p.mu.Unlock()
		_ = p.ensureConnLocked()
	}()
}
