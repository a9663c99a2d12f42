package bus

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
