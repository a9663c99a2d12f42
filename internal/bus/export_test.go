package bus

import (
	"io"
	"reflect"
	"unsafe"
)

// The dissemination tree's inverse relations: nothing relays by them,
// the topology tests check Children against them.

// Parent returns self's parent in the tree rooted at root; ok is false
// for the root itself and for non-members.
func (t *Tree) Parent(root, self string) (string, bool) {
	p, ok := t.rotated(root, self)
	if !ok || p == 0 {
		return "", false
	}
	r := t.pos[root]
	return t.members[(r+(p-1)/t.fanout)%len(t.members)], true
}

// Depth returns the hop count from root to self (0 for the root), or -1
// for non-members.
func (t *Tree) Depth(root, self string) int {
	p, ok := t.rotated(root, self)
	if !ok {
		return -1
	}
	d := 0
	for p > 0 {
		p = (p - 1) / t.fanout
		d++
	}
	return d
}

// EncodeCall and DecodeFrame frame a call and decode one frame as a
// connection's read loop does, for the allocation pins on whole frames
// of payloads that packages above the bus register.
func EncodeCall(e *WireEnc, seq uint64, from, to, op string, arg any) error {
	return encodeWireMsg(e, &wireMsg{Kind: "call", Seq: seq, From: from, To: to, Op: op, Arg: arg})
}

// DecodeFrame returns the frame's argument.
func DecodeFrame(d *WireDec) (any, error) {
	var m wireMsg
	err := decodeWireMsg(d, &m)
	return m.Arg, err
}

// The frame codec and the served connection's read side, for the
// fuzzer in the external test package, which registers payloads that
// packages above the bus own.

// WireMsg is one frame as the codec reads and writes it.
type WireMsg = wireMsg

// TestPayloadA is the bus tests' own payload type, at tag 200.
type TestPayloadA = testPayloadA

// TestPayloads registers the bus tests' payload types.
var TestPayloads = testPayloads

// WireKindCall is the kind byte of a call frame.
const WireKindCall = wireKindCall

// EncodeMsg and DecodeMsg frame and read one message.
func EncodeMsg(e *WireEnc, m *WireMsg) error { return encodeWireMsg(e, m) }

func DecodeMsg(d *WireDec, m *WireMsg) error { return decodeWireMsg(d, m) }

// ServedFrames decodes frames off r as a connection n serves reads
// them: a call to a row of an op table into the connection's block.
type ServedFrames struct{ sf servedFrames }

func (n *Network) ServedFrames(r io.Reader) *ServedFrames {
	return &ServedFrames{servedFrames{net: n, dec: NewWireDec(r)}}
}

// Next decodes the next frame.
func (f *ServedFrames) Next(m *WireMsg) error { return f.sf.next(m) }

// Keep gives a frame's block back to the connection, as the read loop
// does once it has encoded the call's reply.
func (f *ServedFrames) Keep(m *WireMsg) {
	if m.call != nil {
		f.sf.keep(m.call)
	}
}

// Owned returns the frame as a decoder of its own would have decoded
// it: the argument a row's block holds, boxed in Arg.
func Owned(m *WireMsg) WireMsg {
	o := *m
	if o.call != nil {
		arg := reflect.ValueOf(o.call).Elem().FieldByName("arg")
		o.Arg = reflect.NewAt(arg.Type(), unsafe.Pointer(arg.UnsafeAddr())).Elem().Interface()
		o.call = nil
	}
	return o
}
