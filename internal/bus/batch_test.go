package bus

import (
	"sync"
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/event"
	"oasis/internal/value"
)

// batchPeer records whether notes arrived through DeliverBatch or
// one-at-a-time Deliver, preserving arrival order.
type batchPeer struct {
	mu      sync.Mutex
	notes   []event.Notification
	batches int
	singles int
}

func (p *batchPeer) Call(from, op string, arg any) (any, error) { return nil, nil }

func (p *batchPeer) Deliver(n event.Notification) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.singles++
	p.notes = append(p.notes, n)
}

func (p *batchPeer) DeliverBatch(notes []event.Notification) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.batches++
	p.notes = append(p.notes, notes...)
}

func (p *batchPeer) snapshot() ([]event.Notification, int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]event.Notification(nil), p.notes...), p.batches, p.singles
}

// modNote builds a Modified-shaped notification: key identifies the
// record, state/perm mirror the oasis encoding (state 1 = True,
// state 0 + perm = permanently False).
func modNote(sess, seq uint64, key string, state, perm int64) event.Notification {
	return event.Notification{
		SessionID: sess,
		Seq:       seq,
		Event:     event.New("Modified", value.Str(key), value.Int(state), value.Int(perm)),
	}
}

// testRule is the bus-level equivalent of the oasis Modified rule.
var testRule = CoalesceRule{
	Key: func(ev event.Event) string {
		if ev.Name != "Modified" || len(ev.Args) != 3 {
			return ""
		}
		return ev.Args[0].S
	},
	Sticky: func(ev event.Event) bool {
		return len(ev.Args) == 3 && ev.Args[1].I == 0 && ev.Args[2].I != 0
	},
}

func newBatchNet(t *testing.T) (*Network, *batchPeer) {
	t.Helper()
	n := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	n.SetCoalesceRule(testRule)
	p := &batchPeer{}
	if err := n.Register("d", p); err != nil {
		t.Fatal(err)
	}
	return n, p
}

func TestBatchCoalescesLastWriterWins(t *testing.T) {
	n, p := newBatchNet(t)
	n.StartBatch("s")
	n.Send("s", "d", modNote(1, 1, "r1", 1, 0))
	n.Send("s", "d", modNote(1, 2, "r1", 0, 0))
	n.Send("s", "d", modNote(1, 3, "r1", 1, 0))
	n.EndBatch("s")
	notes, batches, singles := p.snapshot()
	if len(notes) != 1 || batches != 1 || singles != 0 {
		t.Fatalf("notes=%d batches=%d singles=%d", len(notes), batches, singles)
	}
	got := notes[0]
	if got.Seq != 3 || got.Coalesced != 2 {
		t.Fatalf("seq=%d coalesced=%d, want 3/2", got.Seq, got.Coalesced)
	}
	if got.Event.Args[1].I != 1 {
		t.Fatalf("payload = %v, want the last writer's state", got.Event)
	}
}

func TestBatchStickyPermanentFalseWins(t *testing.T) {
	n, p := newBatchNet(t)
	n.StartBatch("s")
	n.Send("s", "d", modNote(1, 1, "r1", 1, 0))
	n.Send("s", "d", modNote(1, 2, "r1", 0, 1)) // permanent revocation
	n.Send("s", "d", modNote(1, 3, "r1", 1, 0)) // late True must not resurrect
	n.EndBatch("s")
	notes, _, _ := p.snapshot()
	if len(notes) != 1 {
		t.Fatalf("notes = %d, want 1", len(notes))
	}
	got := notes[0]
	if got.Event.Args[1].I != 0 || got.Event.Args[2].I == 0 {
		t.Fatalf("payload = %v, want sticky permanent-False", got.Event)
	}
	if got.Seq != 3 || got.Coalesced != 2 {
		t.Fatalf("seq=%d coalesced=%d: absorbed seqs must still be accounted", got.Seq, got.Coalesced)
	}
}

func TestBatchKeepsDistinctKeysAndGaps(t *testing.T) {
	n, p := newBatchNet(t)
	n.StartBatch("s")
	n.Send("s", "d", modNote(1, 1, "r1", 1, 0))
	n.Send("s", "d", modNote(1, 2, "r2", 1, 0)) // different record
	n.Send("s", "d", modNote(1, 4, "r2", 0, 0)) // gap: seq 3 went elsewhere
	n.EndBatch("s")
	notes, _, _ := p.snapshot()
	if len(notes) != 3 {
		t.Fatalf("notes = %d, want 3 (no cross-key or cross-gap coalescing)", len(notes))
	}
}

func TestBatchHeartbeatBreaksRun(t *testing.T) {
	n, p := newBatchNet(t)
	n.StartBatch("s")
	n.Send("s", "d", modNote(1, 1, "r1", 1, 0))
	hb := event.Notification{SessionID: 1, Seq: 2, Heartbeat: true}
	n.Send("s", "d", hb)
	n.Send("s", "d", modNote(1, 3, "r1", 0, 0))
	n.EndBatch("s")
	notes, _, _ := p.snapshot()
	if len(notes) != 3 {
		t.Fatalf("notes = %d, want 3 (heartbeats never coalesce)", len(notes))
	}
	if !notes[1].Heartbeat {
		t.Fatalf("heartbeat out of order: %v", notes)
	}
}

func TestBatchInterleavedSessionsCoalescePerSession(t *testing.T) {
	n, p := newBatchNet(t)
	n.StartBatch("s")
	n.Send("s", "d", modNote(1, 1, "r1", 1, 0))
	n.Send("s", "d", modNote(2, 1, "r1", 1, 0))
	n.Send("s", "d", modNote(1, 2, "r1", 0, 0))
	n.Send("s", "d", modNote(2, 2, "r1", 0, 0))
	n.EndBatch("s")
	notes, _, _ := p.snapshot()
	if len(notes) != 2 {
		t.Fatalf("notes = %d, want one per session", len(notes))
	}
	for _, got := range notes {
		if got.Seq != 2 || got.Coalesced != 1 || got.Event.Args[1].I != 0 {
			t.Fatalf("session %d: seq=%d coalesced=%d ev=%v",
				got.SessionID, got.Seq, got.Coalesced, got.Event)
		}
	}
}

func TestBatchFallbackToPerNoteDeliver(t *testing.T) {
	// A plain Endpoint (no DeliverBatch) still gets the coalesced burst,
	// one Deliver per surviving note, in order.
	n := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	n.SetCoalesceRule(testRule)
	p := &testPeer{}
	if err := n.Register("d", p); err != nil {
		t.Fatal(err)
	}
	n.StartBatch("s")
	n.Send("s", "d", modNote(1, 1, "r1", 1, 0))
	n.Send("s", "d", modNote(1, 2, "r1", 0, 1))
	n.Send("s", "d", modNote(1, 3, "r2", 1, 0))
	n.EndBatch("s")
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.notes) != 2 {
		t.Fatalf("notes = %d, want 2", len(p.notes))
	}
	if p.notes[0].Event.Args[0].S != "r1" || p.notes[1].Event.Args[0].S != "r2" {
		t.Fatalf("order lost: %v", p.notes)
	}
}

func TestBatchNestingDefersUntilOutermostEnd(t *testing.T) {
	n, p := newBatchNet(t)
	n.StartBatch("s")
	n.StartBatch("s")
	n.Send("s", "d", modNote(1, 1, "r1", 1, 0))
	n.EndBatch("s")
	if notes, _, _ := p.snapshot(); len(notes) != 0 {
		t.Fatal("inner EndBatch flushed a nested batch")
	}
	n.EndBatch("s")
	if notes, _, _ := p.snapshot(); len(notes) != 1 {
		t.Fatal("outermost EndBatch did not flush")
	}
}

func TestBatchIsPerSource(t *testing.T) {
	// An open batch for one source must not buffer other sources' sends.
	n, p := newBatchNet(t)
	n.StartBatch("s")
	defer n.EndBatch("s")
	n.Send("other", "d", modNote(1, 1, "r1", 1, 0))
	if notes, _, _ := p.snapshot(); len(notes) != 1 {
		t.Fatal("unbatched source was buffered behind another source's batch")
	}
}

func TestFlushCountsVanishedDestinationAsDropped(t *testing.T) {
	// A delayed notification whose destination disappears before the due
	// time is dropped — counted, never silently discarded and never part
	// of the delivered total.
	clkA := clock.NewVirtual(time.Unix(0, 0))
	netA := NewNetwork(clkA)
	if err := netA.Register("svc", &testPeer{}); err != nil {
		t.Fatal(err)
	}
	ln, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	go func() { _ = netA.ServeTCP(ln) }()
	defer ln.Close()

	clkB := clock.NewVirtual(time.Unix(0, 0))
	netB := NewNetwork(clkB)
	if err := netB.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	handLinks(netB).setDelay("caller", "svc", 5*time.Second)
	netB.Send("caller", "svc", event.Notification{Seq: 1})
	netB.CloseRemotes() // destination vanishes while the note is in flight
	clkB.Advance(10 * time.Second)
	if got := netB.Flush(); got != 0 {
		t.Fatalf("Flush delivered %d to a vanished destination", got)
	}
	if netB.Count("dropped") != 1 {
		t.Fatalf("dropped = %d, want 1", netB.Count("dropped"))
	}
}

func TestCoalescingOrderAcrossTransports(t *testing.T) {
	// The §4.9.2 safety property, checked on both transports: when a
	// permanent-False is followed by a later True inside one batch, no
	// receiver may observe True as the final state of the record.
	clkA := clock.NewVirtual(time.Unix(0, 0))
	netA := NewNetwork(clkA)
	remoteEnd := &batchPeer{}
	if err := netA.Register("far", remoteEnd); err != nil {
		t.Fatal(err)
	}
	ln, err := nettest()
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	go func() { _ = netA.ServeTCP(ln) }()
	defer ln.Close()

	netB := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	netB.SetCoalesceRule(testRule)
	localEnd := &batchPeer{}
	if err := netB.Register("near", localEnd); err != nil {
		t.Fatal(err)
	}
	if err := netB.AddRemote("far", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer netB.CloseRemotes()

	netB.StartBatch("s")
	for _, to := range []string{"near", "far"} {
		netB.Send("s", to, modNote(1, 1, "r1", 1, 0))
		netB.Send("s", to, modNote(1, 2, "r1", 0, 1))
		netB.Send("s", to, modNote(1, 3, "r1", 1, 0))
	}
	netB.EndBatch("s")

	check := func(name string, notes []event.Notification) {
		t.Helper()
		falseSeen := false
		for _, got := range notes {
			if got.Event.Args[1].I == 0 && got.Event.Args[2].I != 0 {
				falseSeen = true
			} else if falseSeen {
				t.Fatalf("%s: True observed after permanent-False: %v", name, notes)
			}
		}
		last := notes[len(notes)-1]
		if last.Event.Args[1].I != 0 {
			t.Fatalf("%s: final state True after revocation: %v", name, notes)
		}
	}
	notes, _, _ := localEnd.snapshot()
	if len(notes) == 0 {
		t.Fatal("in-process endpoint got nothing")
	}
	check("in-process", notes)

	deadline := time.Now().Add(2 * time.Second)
	for {
		notes, _, _ = remoteEnd.snapshot()
		if len(notes) > 0 && notes[len(notes)-1].Seq == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TCP burst incomplete: %v", notes)
		}
		time.Sleep(2 * time.Millisecond)
	}
	check("tcp", notes)
}
