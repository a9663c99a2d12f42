package event

import (
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/value"
)

func TestReceiverDispatchByRegistration(t *testing.T) {
	r := NewReceiver(nil)
	var got []Event
	r.HandleFrom("s", 7, func(e Event) { got = append(got, e) })
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 1, RegID: 7, Event: New("E", value.Int(1))})
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 2, RegID: 8, Event: New("E", value.Int(2))})
	r.Deliver(Notification{Source: "other", SessionID: 1, Seq: 1, RegID: 7, Event: New("E", value.Int(3))})
	if len(got) != 1 || !got[0].Args[0].Equal(value.Int(1)) {
		t.Fatalf("dispatched = %v", got)
	}
}

func TestReceiverDetectsGap(t *testing.T) {
	var gaps []string
	r := NewReceiver(func(src string) { gaps = append(gaps, src) })
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 1, Heartbeat: true})
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 3, Heartbeat: true})
	if len(gaps) != 1 || gaps[0] != "s" {
		t.Fatalf("gaps = %v", gaps)
	}
	// A duplicate is not a gap.
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 3, Heartbeat: true})
	if len(gaps) != 1 {
		t.Fatalf("duplicate counted as gap: %v", gaps)
	}
}

func TestReceiverHorizonTracking(t *testing.T) {
	r := NewReceiver(nil)
	t1 := time.Unix(100, 0)
	t2 := time.Unix(200, 0)
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 1, Horizon: t2, Heartbeat: true})
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 2, Horizon: t1, Heartbeat: true})
	h, ok := r.Horizon("s")
	if !ok || !h.Equal(t2) {
		t.Fatalf("horizon = %v, %v", h, ok)
	}
	if _, ok := r.Horizon("unknown"); ok {
		t.Fatal("unknown source has horizon")
	}
}

func TestReceiverLivenessDetection(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	r := NewReceiver(nil)
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 1, Horizon: clk.Now(), Heartbeat: true})

	// Within the allowance: alive.
	clk.Advance(2 * time.Second)
	if failed := r.CheckLiveness(clk.Now(), 5*time.Second); len(failed) != 0 {
		t.Fatalf("premature failure report: %v", failed)
	}
	// Past the allowance: presumed failed, reported exactly once.
	clk.Advance(10 * time.Second)
	failed := r.CheckLiveness(clk.Now(), 5*time.Second)
	if len(failed) != 1 || failed[0] != "s" {
		t.Fatalf("failed = %v", failed)
	}
	if !r.Silent("s") {
		t.Fatal("source not marked silent")
	}
	if again := r.CheckLiveness(clk.Now(), 5*time.Second); len(again) != 0 {
		t.Fatalf("failure reported twice: %v", again)
	}
	// A fresh heartbeat clears the silence.
	clk.Advance(time.Second)
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 2, Horizon: clk.Now(), Heartbeat: true})
	if r.Silent("s") {
		t.Fatal("source still silent after heartbeat")
	}
}

func TestReceiverSuppressesDuplicates(t *testing.T) {
	// A lossy link may deliver the same notification twice (fault-plane
	// duplication); the payload must be applied once.
	r := NewReceiver(nil)
	var got []Event
	r.HandleFrom("s", 7, func(e Event) { got = append(got, e) })
	n := Notification{Source: "s", SessionID: 1, Seq: 5, RegID: 7, Event: New("E", value.Int(1))}
	r.Deliver(n)
	r.Deliver(n)
	if len(got) != 1 {
		t.Fatalf("duplicate dispatched: %d deliveries", len(got))
	}
}

func TestReceiverSessionsKeyedBySource(t *testing.T) {
	// Two brokers allocate session ids independently; session 1 from
	// source A must not mask session 1 from source B.
	var gaps []string
	r := NewReceiver(func(src string) { gaps = append(gaps, src) })
	var got []Event
	r.HandleFrom("A", 1, func(e Event) { got = append(got, e) })
	r.HandleFrom("B", 1, func(e Event) { got = append(got, e) })
	r.Deliver(Notification{Source: "A", SessionID: 1, Seq: 5, RegID: 1, Event: New("E", value.Int(1))})
	// Same session id and a lower seq from a different source: neither a
	// duplicate nor a gap.
	r.Deliver(Notification{Source: "B", SessionID: 1, Seq: 1, RegID: 1, Event: New("E", value.Int(2))})
	if len(got) != 2 {
		t.Fatalf("cross-source collision suppressed delivery: %d", len(got))
	}
	if len(gaps) != 0 {
		t.Fatalf("cross-source collision reported a gap: %v", gaps)
	}
}

func TestReceiverSessionFloor(t *testing.T) {
	r := NewReceiver(nil)
	var got []Event
	r.HandleFrom("s", 7, func(e Event) { got = append(got, e) })
	r.SetSessionFloor("s", 1, 10)
	// In-flight notifications at or below the floor are stale.
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 9, RegID: 7, Event: New("E", value.Int(1))})
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 10, RegID: 7, Event: New("E", value.Int(2))})
	if len(got) != 0 {
		t.Fatalf("pre-floor notification dispatched: %d", len(got))
	}
	// Above the floor flows normally.
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 11, RegID: 7, Event: New("E", value.Int(3))})
	if len(got) != 1 || !got[0].Args[0].Equal(value.Int(3)) {
		t.Fatalf("post-floor delivery = %v", got)
	}
	// The floor never regresses the high-water mark.
	r.SetSessionFloor("s", 1, 2)
	r.Deliver(Notification{Source: "s", SessionID: 1, Seq: 11, RegID: 7, Event: New("E", value.Int(4))})
	if len(got) != 1 {
		t.Fatal("floor regression re-admitted stale seq")
	}
}

func TestReceiverSources(t *testing.T) {
	r := NewReceiver(nil)
	h := time.Unix(100, 0)
	r.Deliver(Notification{Source: "b", SessionID: 1, Seq: 1, Horizon: h, Heartbeat: true})
	r.Deliver(Notification{Source: "a", SessionID: 1, Seq: 1, Horizon: h, Heartbeat: true})
	got := r.Sources()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Sources = %v", got)
	}
}

func TestBrokerSessionSeq(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	b := NewBroker("s", clk, BrokerOptions{})
	r := NewReceiver(nil)
	sess, err := b.OpenSession(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := b.SessionSeq(sess); err != nil || seq != 0 {
		t.Fatalf("fresh session seq = %d, %v", seq, err)
	}
	b.Heartbeat()
	b.Heartbeat()
	if seq, err := b.SessionSeq(sess); err != nil || seq != 2 {
		t.Fatalf("seq after two heartbeats = %d, %v", seq, err)
	}
	if _, err := b.SessionSeq(999); err == nil {
		t.Fatal("unknown session accepted")
	}
}

func TestBrokerReceiverEndToEnd(t *testing.T) {
	// The full figure 6.1 loop: register, signal, dispatch, heartbeat.
	clk := clock.NewVirtual(time.Unix(0, 0))
	b := NewBroker("printer", clk, BrokerOptions{})
	r := NewReceiver(nil)
	sess, err := b.OpenSession(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := b.Register(sess, NewTemplate("Finished", Lit(value.Int(27))))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Event, 1)
	r.HandleFrom("printer", reg, func(e Event) { done <- e })

	b.Signal(New("Finished", value.Int(27)))
	select {
	case e := <-done:
		if !e.Args[0].Equal(value.Int(27)) {
			t.Fatalf("wrong event %v", e)
		}
	default:
		t.Fatal("event not delivered")
	}

	// The heartbeat carries the horizon forward and the stream stays
	// gapless: event 1, heartbeat 2.
	clk.Advance(time.Second)
	b.Heartbeat()
	if h, ok := r.Horizon("printer"); !ok || h.Before(clk.Now()) {
		t.Fatalf("horizon after heartbeat = %v, %v; want >= %v", h, ok, clk.Now())
	}
	if seq, err := b.SessionSeq(sess); err != nil || seq != 2 {
		t.Fatalf("session seq = %d, %v; want 2", seq, err)
	}
}
