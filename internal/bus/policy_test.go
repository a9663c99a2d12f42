package bus

import (
	"errors"
	"sync"
	"testing"
	"time"

	"oasis/internal/event"
)

// scriptPolicy is a LinkPolicy with pre-scripted verdicts (popped in
// send order) and an explicit blocked-link set.
type scriptPolicy struct {
	mu       sync.Mutex
	verdicts []Verdict
	blocked  map[linkKey]bool
}

func (s *scriptPolicy) Notify(from, to string) Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.verdicts) == 0 {
		return Verdict{Copies: 1}
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
	n.SetDelay("a", "b", 5*time.Second)
	n.Send("a", "b", event.Notification{Seq: 1})
	n.FailLink("a", "b")
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
	n.HealLink("a", "b")
	n.SetDelay("a", "b", 0)
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
	pol := &scriptPolicy{}
	n.SetLinkPolicy(pol)
	n.SetDelay("a", "b", 5*time.Second)
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

func TestCallRetryExhaustsThenFails(t *testing.T) {
	n, clk := newNet(t)
	if err := n.Register("caller", &testPeer{}); err != nil {
		t.Fatal(err)
	}
	ln, err := nettest()
	if err != nil {
		t.Skip(err)
	}
	go func() { _ = n.ServeTCP(ln) }()
	// Register a remote, then kill the server so every redial fails.
	if err := n.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	// Break the live connection so the next call must redial.
	rp := remoteOf(t, n, "svc")
	rp.mu.Lock()
	rp.breakLocked()
	rp.mu.Unlock()

	n.SetCallRetry(3, time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := n.Call("caller", "svc", "echo", 1)
		done <- err
	}()
	// The retry loop waits on the virtual clock between attempts; pump
	// it until the call gives up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case err := <-done:
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("err = %v, want ErrUnreachable", err)
			}
			return
		default:
			if time.Now().After(deadline) {
				t.Fatal("retry loop did not terminate")
			}
			clk.Advance(time.Second)
			time.Sleep(time.Millisecond)
		}
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
	if got := n.RemoteDropped("svc"); got != 1 {
		t.Fatalf("RemoteDropped = %d, want 1", got)
	}
	if n.Dropped() != before+1 {
		t.Fatal("per-link drop not reflected in network Dropped")
	}
	if n.RemoteDropped("nosuch") != 0 {
		t.Fatal("unknown name should report 0")
	}
}
