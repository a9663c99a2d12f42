package bus

import (
	"fmt"
	"sort"

	"oasis/internal/event"
)

// Tree is a deterministic k-ary dissemination tree over a member set.
// Members are sorted, then rotated so the root sits at position 0; the
// children of the node at position p are positions k·p+1 … k·p+k. Every
// participant that builds a Tree from the same member set computes the
// same topology for any root with no coordination — the root is simply
// the origin of the burst being disseminated, so every member can
// originate storms over its own tree without a leader election.
//
// This replaces flat point-to-point fan-out for revocation storms: the
// origin pays k sends instead of n−1, interior nodes relay to their own
// k children (in parallel, when the Disseminator runs async), and the
// longest path is ⌈log_k n⌉ hops. A severed link starves exactly one
// subtree, which the §4.10 suspicion machinery detects and the resync
// protocol repairs — tree repair is heartbeat + resync, not a separate
// protocol (docs/SHARDING.md).
type Tree struct {
	members []string       // sorted
	pos     map[string]int // member -> sorted position
	fanout  int
}

// DefaultTreeFanout is the fanout used when NewTree is given k <= 0.
const DefaultTreeFanout = 4

// NewTree builds a dissemination tree over the given members (sorted
// and deduplicated, so any permutation yields the same tree).
func NewTree(members []string, fanout int) (*Tree, error) {
	if fanout <= 0 {
		fanout = DefaultTreeFanout
	}
	seen := make(map[string]bool, len(members))
	var sorted []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("bus: empty tree member name")
		}
		if !seen[m] {
			seen[m] = true
			sorted = append(sorted, m)
		}
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("bus: tree needs at least one member")
	}
	sort.Strings(sorted)
	pos := make(map[string]int, len(sorted))
	for i, m := range sorted {
		pos[m] = i
	}
	return &Tree{members: sorted, pos: pos, fanout: fanout}, nil
}

// Members returns the sorted member list (treat as read-only).
func (t *Tree) Members() []string { return t.members }

// rotated maps a member to its position in the tree rooted at root:
// the root occupies 0 and the rest keep their cyclic order.
func (t *Tree) rotated(root, self string) (int, bool) {
	r, okR := t.pos[root]
	s, okS := t.pos[self]
	if !okR || !okS {
		return 0, false
	}
	n := len(t.members)
	return (s - r + n) % n, true
}

// Children returns self's children in the tree rooted at root; nil when
// self is a leaf or either name is not a member.
func (t *Tree) Children(root, self string) []string {
	p, ok := t.rotated(root, self)
	if !ok {
		return nil
	}
	n := len(t.members)
	r := t.pos[root]
	var out []string
	for c := t.fanout*p + 1; c <= t.fanout*p+t.fanout && c < n; c++ {
		out = append(out, t.members[(r+c)%n])
	}
	return out
}

// ForwardBatch sends a burst over one link with the exact per-note
// semantics of Send — the link policy's verdict (drop, duplicate,
// delay) — then coalesces the
// immediate survivors under the installed CoalesceRule and delivers
// them as one batch. It is the per-tree-edge equivalent of
// StartBatch/EndBatch, usable concurrently from many relays because the
// burst is buffered locally instead of in the per-source batch table.
// It returns the number of notifications delivered immediately
// (delayed copies are queued for Flush as usual).
func (n *Network) ForwardBatch(from, to string, notes []event.Notification) int {
	if len(notes) == 0 {
		return 0
	}
	ep, remote := n.route(to)
	var immediate []event.Notification
	for _, note := range notes {
		n.notifyCount.Add(1)
		if note.Heartbeat {
			n.heartbeatCount.Add(1)
		}
		if ep == nil && remote == nil {
			n.droppedCount.Add(1)
			continue
		}
		v := n.verdict(from, to)
		if v.Drop {
			n.droppedCount.Add(1)
			continue
		}
		for c := 0; c < max(v.Copies, 1); c++ {
			if v.Delay > 0 {
				n.enqueueDelayed(from, to, note, v.Delay)
				continue
			}
			immediate = append(immediate, note)
		}
	}
	if len(immediate) == 0 {
		return 0
	}
	out := coalesceNotes(n.coalesce.Load(), immediate)
	n.deliverBatch(from, to, out)
	return len(out)
}

// Disseminator relays bursts along a Tree's edges for one member. Each
// edge is one ForwardBatch — link faults, delay and coalescing apply
// per edge, so a storm reaching a relay as an already-coalesced burst
// is re-coalesced against anything the relay adds before forwarding.
//
// In async mode each child edge is forwarded on its own goroutine: the
// origin returns after paying k sends and interior relays fan out in
// parallel, which is where the tree's wall-clock advantage over flat
// fan-out comes from (EXPERIMENTS.md E34). Synchronous mode forwards
// depth-first on the caller's goroutine — fully deterministic, which is
// what the chaos suite wants.
type Disseminator struct {
	net   *Network
	tree  *Tree
	self  string
	async bool
}

// NewDisseminator builds the relay for one tree member.
func NewDisseminator(n *Network, t *Tree, self string, async bool) *Disseminator {
	return &Disseminator{net: n, tree: t, self: self, async: async}
}

// Forward relays a burst rooted at root to this member's children; a
// member originates a burst by forwarding one rooted at itself. Callers
// must not mutate notes afterwards in async mode.
func (d *Disseminator) Forward(root string, notes []event.Notification) {
	for _, child := range d.tree.Children(root, d.self) {
		if d.async {
			go d.net.ForwardBatch(d.self, child, notes)
			continue
		}
		d.net.ForwardBatch(d.self, child, notes)
	}
}
