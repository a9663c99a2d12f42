package bus

import (
	"expvar"
	"fmt"
)

// OpTable is an Endpoint that serves its calls from a table of typed
// rows (Ops). A TCP link serves a call to one of the rows out of memory
// its connection keeps, and runs one the row declares never to wait on
// its read loop (tcp.go); Endpoint.Call, the in-process way in, serves
// from the same table (Ops.Call).
type OpTable interface {
	Endpoint
	// Ops returns the endpoint's table, the same rows every time: a
	// served connection keeps a block per row it has served.
	Ops() Ops
}

// Ops is an endpoint's op table, one row per operation it serves.
type Ops []ServedOp

// ServedOp is a row of an op table: an *Op of some argument and reply.
type ServedOp interface {
	opName() string
	argTag() byte
	newCall() servedCall
	call(from string, arg any) (any, error)
}

// Op is one served operation: its name, the payload tags of its
// argument A and reply R (RegisterPayload), whether a call never waits,
// and its handler.
//
// A served connection decodes a call's argument into a block it keeps
// for the row — the argument, the reply, and the room the argument's
// decoder may borrow (WireDec.Room) — and encodes the reply from the
// block, so a served call allocates only what it keeps. The ownership
// rule: the connection reuses the block for its next call only once the
// reply that points into it has been encoded, which is when its read
// loop flushed the reply itself. A reply that queues behind a running
// flusher, and a call handed to a worker, take their block with them,
// and the next call takes a fresh one.
type Op[A, R any] struct {
	Name             string
	ArgTag, ReplyTag byte
	// NeverWaits reports whether a call with this argument waits on
	// nothing but its endpoint's memory and CPU: no call out, no disk
	// wait, no lock held by anything that does either. A read loop runs
	// such a call itself; one that called out would hold the loop for as
	// long as the far side took, and until CallDeadline if the far side
	// were waiting in turn for a call this loop has yet to read. nil:
	// every call runs on a worker.
	NeverWaits func(A) bool
	// Serve answers a call. prev is the reply the same block answered
	// last (zero on a fresh block, and in process), whose memory the
	// answer may reuse: nothing outside the block holds it.
	Serve func(from string, a A, prev R) (R, error)
}

func (op *Op[A, R]) opName() string { return op.Name }
func (op *Op[A, R]) argTag() byte   { return op.ArgTag }

func (op *Op[A, R]) newCall() servedCall { return &opCall[A, R]{op: op} }

// call serves an in-process call, refusing an argument of another type.
func (op *Op[A, R]) call(from string, arg any) (any, error) {
	a, ok := arg.(A)
	if !ok {
		return nil, fmt.Errorf("bus: bad %s argument %T", op.Name, arg)
	}
	var zero R
	return op.Serve(from, a, zero)
}

// Call serves an in-process call from the row named op.
func (t Ops) Call(from, op string, arg any) (any, error) {
	if row := t.lookup(op); row != nil {
		return row.call(from, arg)
	}
	return nil, fmt.Errorf("bus: unknown operation %q", op)
}

func (t Ops) lookup(op string) ServedOp {
	for _, row := range t {
		if row.opName() == op {
			return row
		}
	}
	return nil
}

// servedCall is a served call's block: its decoded argument and its
// reply, typed by its row.
type servedCall interface {
	row() ServedOp
	decodeArg(d *WireDec) error
	neverWaits() bool
	serve(from string) error
	encodeReply(e *WireEnc) error
}

type opCall[A, R any] struct {
	op    *Op[A, R]
	arg   A
	reply R
	room  any // lent to the argument's decoder (WireDec.Room)
}

func (c *opCall[A, R]) row() ServedOp { return c.op }

// decodeArg decodes the payload after its tag into the block, lending
// the decoder the block's room; every field of the argument is
// overwritten.
func (c *opCall[A, R]) decodeArg(d *WireDec) error {
	codec, err := codecFor[A](c.op.ArgTag)
	if err != nil {
		return err
	}
	d.room = &c.room
	c.arg, err = codec.dec(d)
	d.room = nil
	return err
}

func (c *opCall[A, R]) neverWaits() bool {
	return c.op.NeverWaits != nil && c.op.NeverWaits(c.arg)
}

func (c *opCall[A, R]) serve(from string) (err error) {
	c.reply, err = c.op.Serve(from, c.arg, c.reply)
	return err
}

// encodeReply writes the reply as a tagged payload, as EncodePayload
// would have written it boxed.
func (c *opCall[A, R]) encodeReply(e *WireEnc) error {
	codec, err := codecFor[R](c.op.ReplyTag)
	if err != nil {
		return err
	}
	e.PutByte(c.op.ReplyTag)
	codec.enc(e, c.reply)
	return nil
}

// servedRow is a row a served connection has read calls for: the
// block it lends the row's next call, nil while the last one is away,
// and the row's call counter.
type servedRow struct {
	op    ServedOp
	block servedCall
	calls *expvar.Int
}

// servedFrames is a served connection's read side: it decodes each
// frame, and a call to a row of a local endpoint's op table that
// carries the row's argument tag into a block of the connection's.
type servedFrames struct {
	net  *Network
	dec  *WireDec
	rows []servedRow
}

// next decodes one frame. A call that a row takes has its block in
// msg.call, taken out of the connection's hands until keep returns it;
// any other payload is an owned value in msg.Arg. Every call a row takes
// counts in the network's calls, as Network.Call counts the rest.
func (sf *servedFrames) next(msg *wireMsg) error {
	d := sf.dec
	if err := decodeWireHead(d, msg); err != nil || msg.Kind == "notify" {
		return err
	}
	tag, err := d.Byte()
	if err != nil {
		return err
	}
	if msg.Kind == "call" {
		if op := sf.net.servedOp(msg.To, msg.Op); op != nil && tag == op.argTag() {
			r := sf.row(op)
			c := r.block
			if c == nil {
				c = op.newCall()
			}
			r.block = nil
			if err := c.decodeArg(d); err != nil {
				return err
			}
			r.calls.Add(1)
			msg.call = c
			return nil
		}
	}
	msg.Arg, err = decodePayloadBody(d, tag)
	return err
}

// keep gives a call's block back to the connection, for its next call
// to the row: its reply has been encoded.
func (sf *servedFrames) keep(c servedCall) {
	sf.row(c.row()).block = c
}

func (sf *servedFrames) row(op ServedOp) *servedRow {
	for i := range sf.rows {
		if sf.rows[i].op == op {
			return &sf.rows[i]
		}
	}
	sf.rows = append(sf.rows, servedRow{op: op, calls: sf.net.callCounter(op.opName())})
	return &sf.rows[len(sf.rows)-1]
}

// servedOp returns the row serving op at the local endpoint named to,
// nil when the name is no OpTable of this network's or its table has no
// such row.
func (n *Network) servedOp(to, op string) ServedOp {
	ep, _ := n.route(to)
	if t, ok := ep.(OpTable); ok {
		return t.Ops().lookup(op)
	}
	return nil
}

// callCounter returns the calls counter of op, creating it at zero.
func (n *Network) callCounter(op string) *expvar.Int {
	n.calls.Add(op, 0)
	c, _ := n.calls.Get(op).(*expvar.Int)
	return c
}
