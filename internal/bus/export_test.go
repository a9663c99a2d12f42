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
