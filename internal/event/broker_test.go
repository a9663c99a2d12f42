package event

import (
	"errors"
	"sync"
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/value"
)

type capture struct {
	mu sync.Mutex
	ns []Notification
}

func (c *capture) Deliver(n Notification) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ns = append(c.ns, n)
}

func (c *capture) all() []Notification {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Notification(nil), c.ns...)
}

func (c *capture) events() []Event {
	var out []Event
	for _, n := range c.all() {
		if !n.Heartbeat {
			out = append(out, n.Event)
		}
	}
	return out
}

func newTestBroker(t *testing.T, opts BrokerOptions) (*Broker, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(1000, 0))
	return NewBroker("printer", clk, opts), clk
}

func TestRegisterAndNotify(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	sink := &capture{}
	sess, err := b.OpenSession(sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := b.Register(sess, NewTemplate("Finished", Lit(value.Int(27))))
	if err != nil {
		t.Fatal(err)
	}
	b.Signal(New("Finished", value.Int(26)))
	b.Signal(New("Finished", value.Int(27)))
	got := sink.events()
	if len(got) != 1 || !got[0].Args[0].Equal(value.Int(27)) {
		t.Fatalf("notifications = %v", got)
	}
	if sink.all()[0].RegID != reg {
		t.Fatal("notification lacks registration id")
	}
	if sink.all()[0].Source != "printer" {
		t.Fatal("notification lacks source")
	}
}

func TestWildcardRegistration(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	sink := &capture{}
	sess, _ := b.OpenSession(sink, nil)
	if _, err := b.Register(sess, NewTemplate("Finished", Wildcard())); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		b.Signal(New("Finished", value.Int(i)))
	}
	if len(sink.events()) != 5 {
		t.Fatalf("got %d notifications, want 5", len(sink.events()))
	}
}

// TestSignalToReachesOnlyTheListed: SignalTo needs no registration,
// reaches the listed sessions the Visibility hook admits and nobody
// else, and numbers its notifications in the same per-session sequence
// as heartbeats.
func TestSignalToReachesOnlyTheListed(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{
		Visibility: func(_ uint64, creds any, _ Event) bool { return creds != "blind" },
	})
	heard, other, blind := &capture{}, &capture{}, &capture{}
	s1, _ := b.OpenSession(heard, nil)
	_, _ = b.OpenSession(other, nil)
	s3, _ := b.OpenSession(blind, "blind")
	if _, err := b.Register(s1, NewTemplate("E", Wildcard())); err != nil {
		t.Fatal(err)
	}
	b.Heartbeat()
	b.SignalTo(New("E", value.Int(1)), []uint64{s1, s3, 999})
	b.Heartbeat()
	b.SignalTo(New("E", value.Int(2)), []uint64{s1})
	ns := heard.all()
	if len(ns) != 4 {
		t.Fatalf("listed session got %d notifications, want 4", len(ns))
	}
	first, second := ns[1].Event, ns[3].Event
	if first.Source != "printer" || second.Seq != first.Seq+1 || !second.Time.After(first.Time) {
		t.Fatalf("stamps: %+v then %+v", first, second)
	}
	for i, n := range ns {
		if n.Seq != uint64(i+1) || n.RegID != 0 || n.Heartbeat != (i%2 == 0) {
			t.Fatalf("notification %d: %+v", i, n)
		}
	}
	if len(other.events()) != 0 || len(blind.events()) != 0 {
		t.Fatalf("unlisted session heard %v, invisible one %v", other.events(), blind.events())
	}
}

func TestCloseSessionDropsRegistrations(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	sink := &capture{}
	sess, _ := b.OpenSession(sink, nil)
	if _, err := b.Register(sess, NewTemplate("E")); err != nil {
		t.Fatal(err)
	}
	if err := b.CloseSession(sess); err != nil {
		t.Fatal(err)
	}
	b.Signal(New("E"))
	if len(sink.events()) != 0 {
		t.Fatal("closed session still notified")
	}
	if err := b.CloseSession(sess); !errors.Is(err, ErrNoSession) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := b.Register(sess, NewTemplate("E")); !errors.Is(err, ErrNoSession) {
		t.Fatalf("register on closed session: %v", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	refuse := errors.New("no badge")
	b, _ := newTestBroker(t, BrokerOptions{
		Admission: func(creds any) error {
			if creds == nil {
				return refuse
			}
			return nil
		},
	})
	if _, err := b.OpenSession(&capture{}, nil); !errors.Is(err, refuse) {
		t.Fatalf("admission not applied: %v", err)
	}
	if _, err := b.OpenSession(&capture{}, "cert"); err != nil {
		t.Fatalf("admitted client refused: %v", err)
	}
}

func TestVisibilityFilter(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{
		Visibility: func(sess uint64, creds any, ev Event) bool {
			// Clients may only see even job numbers.
			return ev.Args[0].I%2 == 0
		},
	})
	sink := &capture{}
	sess, _ := b.OpenSession(sink, nil)
	if _, err := b.Register(sess, NewTemplate("Finished", Wildcard())); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		b.Signal(New("Finished", value.Int(i)))
	}
	got := sink.events()
	if len(got) != 2 {
		t.Fatalf("visibility filter passed %d events, want 2", len(got))
	}
	for _, e := range got {
		if e.Args[0].I%2 != 0 {
			t.Fatalf("odd event leaked: %v", e)
		}
	}
}

func TestMonotoneStampsAndSeq(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	// Virtual clock does not advance: stamps must still be monotone.
	e1 := b.Signal(New("E"))
	e2 := b.Signal(New("E"))
	if !e2.Time.After(e1.Time) {
		t.Fatalf("stamps not monotone: %v then %v", e1.Time, e2.Time)
	}
	if e2.Seq != e1.Seq+1 {
		t.Fatalf("seq not increasing: %d then %d", e1.Seq, e2.Seq)
	}
}

func TestHeartbeatCarriesHorizon(t *testing.T) {
	b, clk := newTestBroker(t, BrokerOptions{})
	sink := &capture{}
	if _, err := b.OpenSession(sink, nil); err != nil {
		t.Fatal(err)
	}
	b.Signal(New("E")) // stamps lastStamp
	clk.Advance(10 * time.Second)
	b.Heartbeat()
	ns := sink.all()
	hb := ns[len(ns)-1]
	if !hb.Heartbeat {
		t.Fatal("expected heartbeat notification")
	}
	if hb.Horizon.Before(clk.Now()) {
		t.Fatalf("heartbeat horizon %v earlier than now %v", hb.Horizon, clk.Now())
	}
}

// heldSink blocks in the first event it is handed until release is
// closed, as a TCP sink whose peer stopped reading does.
type heldSink struct {
	capture
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func (h *heldSink) Deliver(n Notification) {
	if !n.Heartbeat {
		h.once.Do(func() { close(h.held); <-h.release })
	}
	h.capture.Deliver(n)
}

// TestHeartbeatWaitsBehindEvent: while a signaller is held in one
// session's sink, a heartbeat stamped later reaches another session the
// event targets only after the event, and neither waits for the held
// sink (§4.10: a horizon is a lower bound on what is still to come).
// Signal's targets come in registration-map order, so there session A
// may be drained second; the ordering holds either way.
func TestHeartbeatWaitsBehindEvent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		signal func(t *testing.T, b *Broker, sessions []uint64)
	}{
		{"SignalTo", func(t *testing.T, b *Broker, sessions []uint64) { b.SignalTo(New("Modified"), sessions) }},
		{"Signal", func(t *testing.T, b *Broker, sessions []uint64) {
			for _, id := range sessions {
				if _, err := b.Register(id, NewTemplate("Modified")); err != nil {
					t.Error(err)
				}
			}
			b.Signal(New("Modified"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, clk := newTestBroker(t, BrokerOptions{})
			a := &heldSink{held: make(chan struct{}), release: make(chan struct{})}
			sessA, err := b.OpenSession(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			bSink := &capture{}
			sessB, err := b.OpenSession(bSink, nil)
			if err != nil {
				t.Fatal(err)
			}
			signalled := make(chan struct{})
			go func() {
				defer close(signalled)
				tc.signal(t, b, []uint64{sessA, sessB})
			}()
			<-a.held
			clk.Advance(10 * time.Second)
			b.Heartbeat()

			got := bSink.all()
			if len(got) != 2 || got[0].Heartbeat || !got[1].Heartbeat {
				t.Fatalf("B received %+v while A's sink was held, want the event then the heartbeat", got)
			}
			if ev, hb := got[0], got[1]; hb.Seq <= ev.Seq || !hb.Horizon.After(ev.Event.Time) {
				t.Fatalf("heartbeat seq %d horizon %v after event seq %d stamped %v", hb.Seq, hb.Horizon, ev.Seq, ev.Event.Time)
			}

			close(a.release)
			<-signalled
			if got := a.all(); len(got) != 2 || got[0].Heartbeat || !got[1].Heartbeat || got[1].Seq != got[0].Seq+1 {
				t.Fatalf("A received %+v, want the event then the heartbeat", got)
			}
		})
	}
}

// TestPendingNotificationsCountsWhatSinksHaveNotTaken: the figure is
// what sits in outboxes that no drain has taken yet. A's sink is held
// inside the delivery of an event: B's copy waits behind it, and a
// heartbeat then queues behind the held sink on A and goes straight
// through on B. Once A's sink is released, nothing is pending.
func TestPendingNotificationsCountsWhatSinksHaveNotTaken(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	a := &heldSink{held: make(chan struct{}), release: make(chan struct{})}
	sessA, err := b.OpenSession(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := b.OpenSession(&capture{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	signalled := make(chan struct{})
	go func() {
		defer close(signalled)
		b.SignalTo(New("Modified"), []uint64{sessA, sessB})
	}()
	<-a.held
	if got := b.PendingNotifications(); got != 1 {
		t.Fatalf("%d pending with A's sink held in the event, want B's copy: 1", got)
	}
	b.Heartbeat()
	if got := b.PendingNotifications(); got != 1 {
		t.Fatalf("%d pending after a heartbeat, want A's: 1", got)
	}
	close(a.release)
	<-signalled
	if got := b.PendingNotifications(); got != 0 {
		t.Fatalf("%d pending once every sink has taken its notifications, want 0", got)
	}
}

func TestPreRegistrationBuffersNotNotifies(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	sink := &capture{}
	sess, _ := b.OpenSession(sink, nil)
	if _, err := b.PreRegister(sess, NewTemplate("Seen", Wildcard(), Wildcard())); err != nil {
		t.Fatal(err)
	}
	b.Signal(New("Seen", value.Str("b1"), value.Str("T14")))
	if len(sink.events()) != 0 {
		t.Fatal("pre-registration notified live")
	}
	if b.BufferedCount() != 1 {
		t.Fatalf("buffered %d, want 1", b.BufferedCount())
	}
}

func TestRetrospectiveRegistrationClosesRace(t *testing.T) {
	// The badge-system race of §6.3.3/§6.8.1: events occurring between
	// lookup and registration must not be lost.
	b, clk := newTestBroker(t, BrokerOptions{})
	sink := &capture{}
	sess, _ := b.OpenSession(sink, nil)
	pre, err := b.PreRegister(sess, NewTemplate("Seen", Wildcard(), Wildcard()))
	if err != nil {
		t.Fatal(err)
	}
	start := clk.Now()

	// Events arrive while the client is still discovering parameters.
	clk.Advance(time.Second)
	b.Signal(New("Seen", value.Str("b1"), value.Str("T14")))
	clk.Advance(time.Second)
	b.Signal(New("Seen", value.Str("b2"), value.Str("T15")))

	// Client now knows it wants badge b1, retrospectively from start.
	narrow := NewTemplate("Seen", Lit(value.Str("b1")), Wildcard())
	if err := b.RetroRegister(pre, narrow, start); err != nil {
		t.Fatal(err)
	}
	got := sink.events()
	if len(got) != 1 || !got[0].Args[0].Equal(value.Str("b1")) {
		t.Fatalf("retrospective delivery = %v", got)
	}
	// And live events flow from now on.
	b.Signal(New("Seen", value.Str("b1"), value.Str("T16")))
	if len(sink.events()) != 2 {
		t.Fatal("live event after retro-registration not delivered")
	}
	b.Signal(New("Seen", value.Str("b2"), value.Str("T16")))
	if len(sink.events()) != 2 {
		t.Fatal("narrowed template leaked other badge")
	}
}

func TestRetroRegisterErrors(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	sink := &capture{}
	sess, _ := b.OpenSession(sink, nil)
	live, _ := b.Register(sess, NewTemplate("E"))
	if err := b.RetroRegister(live, NewTemplate("E"), time.Unix(0, 0)); err == nil {
		t.Fatal("retro-register accepted a live registration")
	}
	if err := b.RetroRegister(999, NewTemplate("E"), time.Unix(0, 0)); err == nil {
		t.Fatal("retro-register accepted unknown registration")
	}
}

func TestBufferTrimByAgeAndCount(t *testing.T) {
	b, clk := newTestBroker(t, BrokerOptions{RetainFor: 5 * time.Second, RetainMax: 3})
	sink := &capture{}
	sess, _ := b.OpenSession(sink, nil)
	if _, err := b.PreRegister(sess, NewTemplate("E", Wildcard())); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		b.Signal(New("E", value.Int(i)))
		clk.Advance(time.Second)
	}
	if got := b.BufferedCount(); got > 3 {
		t.Fatalf("buffer holds %d, want <= 3", got)
	}
}

func TestNarrow(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	sink := &capture{}
	sess, _ := b.OpenSession(sink, nil)
	reg, _ := b.Register(sess, NewTemplate("E", Wildcard()))
	if err := b.Narrow(reg, NewTemplate("E", Lit(value.Int(1)))); err != nil {
		t.Fatal(err)
	}
	b.Signal(New("E", value.Int(2)))
	b.Signal(New("E", value.Int(1)))
	if got := len(sink.events()); got != 1 {
		t.Fatalf("narrowed registration got %d events, want 1", got)
	}
	if err := b.Narrow(999, NewTemplate("E")); err == nil {
		t.Fatal("narrowing unknown registration succeeded")
	}
}

func TestRegisterAndQueryAtomic(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	sink := &capture{}
	sess, _ := b.OpenSession(sink, nil)
	db := []Event{New("OwnsBadge", value.Str("rjh21"), value.Str("b7"))}
	reg, existing, err := b.RegisterAndQuery(sess,
		NewTemplate("OwnsBadge", Lit(value.Str("rjh21")), Wildcard()),
		func() []Event { return db })
	if err != nil {
		t.Fatal(err)
	}
	if reg == 0 || len(existing) != 1 {
		t.Fatalf("reg=%d existing=%v", reg, existing)
	}
	b.Signal(New("OwnsBadge", value.Str("rjh21"), value.Str("b8")))
	if len(sink.events()) != 1 {
		t.Fatal("live update after combined lookup not delivered")
	}
}

func TestSessionCount(t *testing.T) {
	b, _ := newTestBroker(t, BrokerOptions{})
	if b.SessionCount() != 0 {
		t.Fatal("fresh broker has sessions")
	}
	s1, _ := b.OpenSession(&capture{}, nil)
	if _, err := b.OpenSession(&capture{}, nil); err != nil {
		t.Fatal(err)
	}
	if b.SessionCount() != 2 {
		t.Fatal("session count wrong")
	}
	if err := b.CloseSession(s1); err != nil {
		t.Fatal(err)
	}
	if b.SessionCount() != 1 {
		t.Fatal("session count after close wrong")
	}
}

// TestSessionIDsDisjointAcrossIncarnations: a service that restarts gets
// a new broker under the old name. Its streams must be new streams at a
// receiver that still remembers the old ones, not low-numbered replays
// of them (Receiver.Deliver drops Seq <= the stream's high-water mark).
func TestSessionIDsDisjointAcrossIncarnations(t *testing.T) {
	const sessions = 100
	clk := clock.NewVirtual(time.Unix(1000, 0))
	recv := NewReceiver(nil)
	dispatched := 0
	recv.HandleFrom("Login", 0, func(Event) { dispatched++ })

	first := NewBroker("Login", clk, BrokerOptions{})
	seen := make(map[uint64]bool)
	for i := 0; i < sessions; i++ {
		id, err := first.OpenSession(recv, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[id] = true
	}
	// The receiver has followed every one of the old streams up to 500.
	for id := range seen {
		recv.Deliver(Notification{Source: "Login", SessionID: id, Seq: 500, Heartbeat: true})
	}

	clk.Advance(time.Second) // the fastest restart worth the name
	second := NewBroker("Login", clk, BrokerOptions{})
	for i := 0; i < sessions; i++ {
		id, err := second.OpenSession(recv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("session id %d handed out by both incarnations", id)
		}
		if _, err := second.Register(id, NewTemplate("Modified", Wildcard())); err != nil {
			t.Fatal(err)
		}
	}
	second.Signal(New("Modified", value.Int(1))) // seq 1 on each new stream
	if dispatched != sessions {
		t.Fatalf("the receiver dispatched %d of the new incarnation's %d first notifications", dispatched, sessions)
	}
}

func TestBrokerConcurrentSignalAndRegister(t *testing.T) {
	// The broker is safe under concurrent signalling, registration and
	// acknowledgement (run under -race in CI).
	b, _ := newTestBroker(t, BrokerOptions{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			sink := &capture{}
			sess, err := b.OpenSession(sink, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 20; j++ {
				if _, err := b.Register(sess, NewTemplate("E", Wildcard())); err != nil {
					t.Error(err)
					return
				}
			}
			_ = b.CloseSession(sess)
		}(i)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b.Signal(New("E", value.Int(int64(j))))
			}
			b.Heartbeat()
		}(i)
	}
	wg.Wait()
}
