package bus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/event"
	"oasis/internal/value"
)

func treeMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("m%03d", i)
	}
	return out
}

func TestTreeStructure(t *testing.T) {
	members := treeMembers(23)
	tr, err := NewTree(members, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"m000", "m007", "m022"} {
		// Every member is reachable exactly once: child sets partition
		// the non-root members, and Parent inverts Children.
		seen := map[string]int{}
		for _, m := range members {
			for _, c := range tr.Children(root, m) {
				seen[c]++
				if p, ok := tr.Parent(root, c); !ok || p != m {
					t.Fatalf("root %s: Parent(%s) = %q,%v; want %q", root, c, p, ok, m)
				}
			}
		}
		if len(seen) != len(members)-1 {
			t.Fatalf("root %s: %d members have a parent, want %d", root, len(seen), len(members)-1)
		}
		for c, n := range seen {
			if n != 1 {
				t.Fatalf("root %s: member %s has %d parents", root, c, n)
			}
		}
		if seen[root] != 0 {
			t.Fatalf("root %s is somebody's child", root)
		}
		if d := tr.Depth(root, root); d != 0 {
			t.Fatalf("Depth(root,root) = %d", d)
		}
		// ⌈log3 23⌉ = 3.
		for _, m := range members {
			if d := tr.Depth(root, m); d < 0 || d > 3 {
				t.Fatalf("root %s: depth of %s = %d, want 0..3", root, m, d)
			}
		}
	}
}

func TestTreeCanonicalAndNonMember(t *testing.T) {
	a, err := NewTree([]string{"c", "a", "b", "a"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTree([]string{"b", "a", "c"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"a", "b", "c"} {
		for _, r := range []string{"a", "b", "c"} {
			got, want := a.Children(r, m), b.Children(r, m)
			if len(got) != len(want) {
				t.Fatalf("permuted trees disagree at root %s self %s", r, m)
			}
		}
	}
	if cs := a.Children("nope", "a"); cs != nil {
		t.Fatalf("children under unknown root: %v", cs)
	}
	if _, ok := a.Parent("a", "nope"); ok {
		t.Fatal("parent of non-member")
	}
	if d := a.Depth("a", "nope"); d != -1 {
		t.Fatalf("depth of non-member = %d", d)
	}
	if _, err := NewTree(nil, 2); err == nil {
		t.Fatal("empty tree accepted")
	}
}

// relayPeer applies a burst and re-forwards it along the tree, counting
// what it saw.
type relayPeer struct {
	d    *Disseminator
	root string
	mu   sync.Mutex
	got  []event.Notification
}

func (r *relayPeer) Call(from, op string, arg any) (any, error) { return arg, nil }
func (r *relayPeer) Deliver(n event.Notification)               { r.DeliverBatch([]event.Notification{n}) }
func (r *relayPeer) DeliverBatch(notes []event.Notification) {
	r.mu.Lock()
	r.got = append(r.got, notes...)
	r.mu.Unlock()
	if r.d != nil {
		r.d.Forward(r.root, notes)
	}
}

func (r *relayPeer) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

// buildRelayNet wires n members into one network with synchronous
// disseminators over a fanout-2 tree rooted at members[0].
func buildRelayNet(t *testing.T, n int) (*Network, *Tree, []string, []*relayPeer) {
	t.Helper()
	net := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	members := treeMembers(n)
	tr, err := NewTree(members, 2)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*relayPeer, n)
	for i, m := range members {
		p := &relayPeer{root: members[0]}
		p.d = NewDisseminator(net, tr, m, false)
		if err := net.Register(m, p); err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	return net, tr, members, peers
}

func burst(src string, n int) []event.Notification {
	out := make([]event.Notification, n)
	for i := range out {
		out[i] = event.Notification{Source: src, SessionID: 1, Seq: uint64(i + 1)}
	}
	return out
}

func TestDisseminatorReachesAll(t *testing.T) {
	_, tr, members, peers := buildRelayNet(t, 15)
	root := members[0]
	peers[0].d.Forward(root, burst(root, 5))
	for i, p := range peers[1:] {
		if p.count() != 5 {
			t.Fatalf("member %s got %d notes, want 5 (depth %d)",
				members[i+1], p.count(), tr.Depth(root, members[i+1]))
		}
	}
	if peers[0].count() != 0 {
		t.Fatal("origin delivered to itself")
	}
}

func TestDisseminatorPartitionStarvesSubtree(t *testing.T) {
	net, tr, members, peers := buildRelayNet(t, 15)
	root := members[0]
	// Sever the edge to the root's first child: exactly that subtree
	// (child + its descendants) must miss the burst.
	firstChild := tr.Children(root, root)[0]
	handLinks(net).setBlocked(root, firstChild, true)
	peers[0].d.Forward(root, burst(root, 3))
	starved := map[string]bool{firstChild: true}
	var grow func(m string)
	grow = func(m string) {
		for _, c := range tr.Children(root, m) {
			starved[c] = true
			grow(c)
		}
	}
	grow(firstChild)
	for i, m := range members {
		want := 3
		if starved[m] || m == root {
			want = 0
		}
		if got := peers[i].count(); got != want {
			t.Fatalf("member %s got %d notes, want %d", m, got, want)
		}
	}
	if net.Count("dropped") != 3 {
		t.Fatalf("dropped = %d, want 3 (one per note on the severed edge)", net.Count("dropped"))
	}
}

func TestForwardBatchCoalescesPerEdge(t *testing.T) {
	net := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	sink := &relayPeer{}
	if err := net.Register("a", &relayPeer{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Register("b", sink); err != nil {
		t.Fatal(err)
	}
	net.SetCoalesceRule(CoalesceRule{
		Key: func(ev event.Event) string {
			if len(ev.Args) > 0 {
				return ev.Args[0].S
			}
			return ""
		},
	})
	notes := burst("a", 4)
	for i := range notes {
		notes[i].Event = event.New("Mod", value.Str("ref-1"))
	}
	net.ForwardBatch("a", "b", notes)
	if sink.count() != 1 {
		t.Fatalf("edge delivered %d notes, want 1 coalesced", sink.count())
	}
	sink.mu.Lock()
	coalesced := sink.got[0].Coalesced
	seq := sink.got[0].Seq
	sink.mu.Unlock()
	if coalesced != 3 || seq != 4 {
		t.Fatalf("survivor Coalesced=%d Seq=%d; want 3,4 (loss detection stays exact)", coalesced, seq)
	}
}

func TestDisseminatorAsyncDeliversAll(t *testing.T) {
	net := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	members := treeMembers(31)
	tr, err := NewTree(members, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(len(members) - 1)
	peers := make([]*asyncRelay, len(members))
	for i, m := range members {
		p := &asyncRelay{root: members[0], wg: &wg}
		p.d = NewDisseminator(net, tr, m, true)
		if i == 0 {
			p.origin = true
		}
		if err := net.Register(m, p); err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	peers[0].d.Forward(members[0], burst(members[0], 8))
	wg.Wait()
	for i, p := range peers[1:] {
		if got := p.count(); got != 8 {
			t.Fatalf("member %s got %d notes, want 8", members[i+1], got)
		}
	}
}

// asyncRelay signals a WaitGroup on its first batch, so the async test
// has a completion barrier.
type asyncRelay struct {
	d      *Disseminator
	root   string
	wg     *sync.WaitGroup
	origin bool
	mu     sync.Mutex
	got    []event.Notification
}

func (r *asyncRelay) Call(from, op string, arg any) (any, error) { return arg, nil }
func (r *asyncRelay) Deliver(n event.Notification)               { r.DeliverBatch([]event.Notification{n}) }
func (r *asyncRelay) DeliverBatch(notes []event.Notification) {
	r.mu.Lock()
	first := len(r.got) == 0
	r.got = append(r.got, notes...)
	r.mu.Unlock()
	r.d.Forward(r.root, notes)
	if first && !r.origin {
		r.wg.Done()
	}
}

func (r *asyncRelay) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}
