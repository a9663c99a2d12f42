package bus

import (
	"errors"
	"sync"
	"testing"
	"time"

	"oasis/internal/event"
)

type linkKey struct{ a, b string }

func normKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// scriptPolicy is this package's own LinkPolicy (internal/fault, the
// real implementer, imports bus): verdicts scripted in send order, and
// once the script is used up links severed and delayed by hand.
type scriptPolicy struct {
	mu       sync.Mutex
	verdicts []Verdict
	blocked  map[linkKey]bool
	delay    map[linkKey]time.Duration
}

// handLinks installs an unscripted policy on n.
func handLinks(n *Network) *scriptPolicy {
	s := &scriptPolicy{}
	n.SetLinkPolicy(s)
	return s
}

func (s *scriptPolicy) Notify(from, to string) Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.verdicts) == 0 {
		k := normKey(from, to)
		return Verdict{Drop: s.blocked[k], Copies: 1, Delay: s.delay[k]}
	}
	v := s.verdicts[0]
	s.verdicts = s.verdicts[1:]
	return v
}

func (s *scriptPolicy) Blocked(from, to string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocked[normKey(from, to)]
}

func (s *scriptPolicy) setBlocked(a, b string, v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blocked == nil {
		s.blocked = make(map[linkKey]bool)
	}
	s.blocked[normKey(a, b)] = v
}

func (s *scriptPolicy) setDelay(a, b string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.delay == nil {
		s.delay = make(map[linkKey]time.Duration)
	}
	s.delay[normKey(a, b)] = d
}

func TestPolicyDropIsCounted(t *testing.T) {
	n, _ := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	n.SetLinkPolicy(&scriptPolicy{verdicts: []Verdict{{Drop: true}, {Copies: 1}}})
	before := n.Dropped()
	n.Send("a", "b", event.Notification{Seq: 1})
	n.Send("a", "b", event.Notification{Seq: 2})
	if p.noteCount() != 1 {
		t.Fatalf("delivered %d notes, want 1", p.noteCount())
	}
	if got := n.Dropped() - before; got != 1 {
		t.Fatalf("Dropped advanced by %d, want 1", got)
	}
}

func TestPolicyDuplicates(t *testing.T) {
	n, _ := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	n.SetLinkPolicy(&scriptPolicy{verdicts: []Verdict{{Copies: 3}}})
	n.Send("a", "b", event.Notification{Seq: 1})
	if p.noteCount() != 3 {
		t.Fatalf("delivered %d copies, want 3", p.noteCount())
	}
}

func TestPolicyDelayReorders(t *testing.T) {
	n, clk := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	n.SetLinkPolicy(&scriptPolicy{verdicts: []Verdict{
		{Copies: 1, Delay: 10 * time.Second},
		{Copies: 1, Delay: 1 * time.Second},
	}})
	n.Send("a", "b", event.Notification{Seq: 1})
	n.Send("a", "b", event.Notification{Seq: 2})
	if p.noteCount() != 0 {
		t.Fatal("delayed notifications arrived early")
	}
	clk.Advance(time.Minute)
	n.Flush()
	if p.noteCount() != 2 {
		t.Fatalf("delivered %d, want 2", p.noteCount())
	}
	if p.notes[0].Seq != 2 || p.notes[1].Seq != 1 {
		t.Fatalf("order = %d,%d; want 2,1 (reordered by delay)", p.notes[0].Seq, p.notes[1].Seq)
	}
}

func TestPolicyBlockedSeversCalls(t *testing.T) {
	n, _ := newNet(t)
	if err := n.Register("b", &testPeer{}); err != nil {
		t.Fatal(err)
	}
	pol := &scriptPolicy{}
	pol.setBlocked("a", "b", true)
	n.SetLinkPolicy(pol)
	if _, err := n.Call("a", "b", "echo", 1); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	pol.setBlocked("a", "b", false)
	if _, err := n.Call("a", "b", "echo", 1); err != nil {
		t.Fatalf("unblocked call failed: %v", err)
	}
	// Removing the policy also unblocks.
	pol.setBlocked("a", "b", true)
	n.SetLinkPolicy(nil)
	if _, err := n.Call("a", "b", "echo", 1); err != nil {
		t.Fatalf("call after policy removal failed: %v", err)
	}
}

// A notification queued with a delay must not slip across a link that
// fails before it comes due; it counts as dropped instead.
func TestQueuedNotificationDroppedWhenLinkFails(t *testing.T) {
	n, clk := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	links := handLinks(n)
	links.setDelay("a", "b", 5*time.Second)
	n.Send("a", "b", event.Notification{Seq: 1})
	links.setBlocked("a", "b", true)
	clk.Advance(10 * time.Second)
	before := n.Dropped()
	if got := n.Flush(); got != 0 {
		t.Fatalf("Flush delivered %d across failed link", got)
	}
	if p.noteCount() != 0 {
		t.Fatal("queued notification crossed failed link")
	}
	if n.Dropped() != before+1 {
		t.Fatalf("drop not counted: %d -> %d", before, n.Dropped())
	}
	// Heal and verify traffic resumes.
	links.setBlocked("a", "b", false)
	links.setDelay("a", "b", 0)
	n.Send("a", "b", event.Notification{Seq: 2})
	if p.noteCount() != 1 {
		t.Fatal("healed link did not deliver")
	}
}

// Same delivery-time check for a policy partition: queued before the
// split, due during it.
func TestQueuedNotificationDroppedDuringPolicyPartition(t *testing.T) {
	n, clk := newNet(t)
	p := &testPeer{}
	if err := n.Register("b", p); err != nil {
		t.Fatal(err)
	}
	pol := &scriptPolicy{verdicts: []Verdict{{Copies: 1, Delay: 5 * time.Second}}}
	n.SetLinkPolicy(pol)
	n.Send("a", "b", event.Notification{Seq: 1})
	pol.setBlocked("a", "b", true)
	clk.Advance(10 * time.Second)
	if got := n.Flush(); got != 0 {
		t.Fatalf("Flush delivered %d across partition", got)
	}
	if p.noteCount() != 0 {
		t.Fatal("queued notification crossed partition")
	}
}

// A call whose link cannot be re-dialled fails at once with
// ErrUnreachable: the bus tries once and waits on no clock (the virtual
// one here never moves), leaving "ask again?" to the caller, who knows
// whether the operation is safe to repeat.
func TestCallOverDeadLinkFailsOnce(t *testing.T) {
	n, _ := newNet(t)
	ln, err := nettest()
	if err != nil {
		t.Skip(err)
	}
	go func() { _ = n.ServeTCP(ln) }()
	if err := n.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	ln.Close() // every redial fails from here on
	rp := remoteOf(t, n, "svc")
	rp.mu.Lock()
	rp.breakLocked() // and the next call must redial
	rp.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := n.Call("caller", "svc", "echo", 1)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("err = %v, want ErrUnreachable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call over a dead link is waiting for something")
	}
}

func TestRemoteDroppedCountsEncodeFailures(t *testing.T) {
	n, _ := newNet(t)
	ln, err := nettest()
	if err != nil {
		t.Skip(err)
	}
	go func() { _ = n.ServeTCP(ln) }()
	if err := n.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	rp := remoteOf(t, n, "svc")
	rp.mu.Lock()
	rp.breakLocked()
	rp.mu.Unlock()

	before := n.Dropped()
	n.Send("caller", "svc", event.Notification{Seq: 1})
	if got := n.Dropped() - before; got != 1 {
		t.Fatalf("Dropped advanced by %d, want 1", got)
	}
}
