package badge

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/composite"
	"oasis/internal/event"
	"oasis/internal/fault"
	"oasis/internal/value"
)

type badgeHarness struct {
	clk *clock.Virtual
	net *bus.Network
	a   *Site // Cambridge
	b   *Site // Parc
	c   *Site // DEC
}

func newBadgeHarness(t *testing.T) *badgeHarness {
	t.Helper()
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	net := bus.NewNetwork(clk)
	mk := func(name string) *Site {
		s, err := NewSite(name, clk, net)
		if err != nil {
			t.Fatal(err)
		}
		s.AddSensor(name+"-s1", "T14")
		s.AddSensor(name+"-s2", "T15")
		return s
	}
	return &badgeHarness{clk: clk, net: net, a: mk("CL"), b: mk("Parc"), c: mk("DEC")}
}

type eventLog struct {
	mu  sync.Mutex
	evs []event.Event
}

func (l *eventLog) Deliver(n event.Notification) {
	if n.Heartbeat {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = append(l.evs, n.Event)
}

func (l *eventLog) named(name string) []event.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []event.Event
	for _, e := range l.evs {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

func subscribe(t *testing.T, s *Site, tmpl event.Template) *eventLog {
	t.Helper()
	log := &eventLog{}
	sess, err := s.Broker().OpenSession(log, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Broker().Register(sess, tmpl); err != nil {
		t.Fatal(err)
	}
	return log
}

func TestSightingSignalsSeen(t *testing.T) {
	h := newBadgeHarness(t)
	log := subscribe(t, h.a, event.NewTemplate(EvSeen, event.Wildcard(), event.Wildcard()))
	rjh := Badge{ID: "b12", Home: "CL"}
	if err := h.a.RegisterBadge(rjh, "rjh21"); err != nil {
		t.Fatal(err)
	}
	h.a.Sight(rjh, "CL-s1")
	seen := log.named(EvSeen)
	if len(seen) != 1 {
		t.Fatalf("Seen events = %d", len(seen))
	}
	if seen[0].Args[0].S != "b12" || seen[0].Args[1].S != "T14" {
		t.Fatalf("Seen = %v", seen[0])
	}
}

func TestInterSiteProtocol(t *testing.T) {
	// Figure 6.2: a CL badge seen at Parc, then at DEC. The home site
	// always knows its location, and Parc's naming info is deleted when
	// the badge moves on (E20).
	h := newBadgeHarness(t)
	moved := subscribe(t, h.a, event.NewTemplate(EvMovedSite, event.Wildcard(), event.Wildcard(), event.Wildcard()))
	rjh := Badge{ID: "b12", Home: "CL"}
	if err := h.a.RegisterBadge(rjh, "rjh21"); err != nil {
		t.Fatal(err)
	}

	// (a) seen at Parc.
	h.b.Sight(rjh, "Parc-s1")
	if loc, _ := h.a.LocationOf("b12"); loc != "Parc" {
		t.Fatalf("home location = %q, want Parc", loc)
	}
	if owner, ok := h.b.OwnerOf("b12"); !ok || owner != "rjh21" {
		t.Fatalf("Parc naming info = %q, %v", owner, ok)
	}

	// (b) seen at DEC: home updates, Parc's info is deleted.
	h.c.Sight(rjh, "DEC-s1")
	if loc, _ := h.a.LocationOf("b12"); loc != "DEC" {
		t.Fatalf("home location = %q, want DEC", loc)
	}
	if h.b.Knows("b12") {
		t.Fatal("Parc kept stale naming info after the badge left")
	}
	if owner, _ := h.c.OwnerOf("b12"); owner != "rjh21" {
		t.Fatal("DEC did not receive naming info")
	}

	// MovedSite events were signalled by the home site.
	ms := moved.named(EvMovedSite)
	if len(ms) != 2 {
		t.Fatalf("MovedSite events = %d", len(ms))
	}
	if ms[0].Args[2].S != "Parc" || ms[1].Args[1].S != "Parc" || ms[1].Args[2].S != "DEC" {
		t.Fatalf("MovedSite sequence = %v", ms)
	}
}

func TestReturnHome(t *testing.T) {
	h := newBadgeHarness(t)
	rjh := Badge{ID: "b12", Home: "CL"}
	if err := h.a.RegisterBadge(rjh, "rjh21"); err != nil {
		t.Fatal(err)
	}
	h.b.Sight(rjh, "Parc-s1")
	h.a.Sight(rjh, "CL-s1")
	if loc, _ := h.a.LocationOf("b12"); loc != "CL" {
		t.Fatalf("location = %q", loc)
	}
}

func TestHomeUnreachableDegradesGracefully(t *testing.T) {
	h := newBadgeHarness(t)
	rjh := Badge{ID: "b12", Home: "CL"}
	if err := h.a.RegisterBadge(rjh, "rjh21"); err != nil {
		t.Fatal(err)
	}
	links := fault.New(h.clk, 1)
	links.Install(h.net)
	links.Sever("CL", "Parc")
	log := subscribe(t, h.b, event.NewTemplate(EvSeen, event.Wildcard(), event.Wildcard()))
	h.b.Sight(rjh, "Parc-s1")
	// Sightings still flow; naming info is simply absent.
	if len(log.named(EvSeen)) != 1 {
		t.Fatal("sighting lost during partition")
	}
	if h.b.Knows("b12") {
		t.Fatal("naming info appeared despite partition")
	}
}

func TestUnknownForeignBadgeRejectedByFakeHome(t *testing.T) {
	h := newBadgeHarness(t)
	// A badge claiming CL as home that CL never registered.
	fake := Badge{ID: "bogus", Home: "CL"}
	h.b.Sight(fake, "Parc-s1")
	if h.b.Knows("bogus") {
		t.Fatal("naming info conjured for unregistered badge")
	}
}

func TestDBRegisterOwnsClosesRace(t *testing.T) {
	// §6.3.3: combined Lookup and Register. The monitoring application
	// sees the existing badge AND the later reassignment, atomically.
	h := newBadgeHarness(t)
	rjh := Badge{ID: "b12", Home: "CL"}
	if err := h.a.RegisterBadge(rjh, "rjh21"); err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	sess, err := h.a.Broker().OpenSession(log, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, existing, err := h.a.DBRegisterOwns(sess, "rjh21")
	if err != nil {
		t.Fatal(err)
	}
	if len(existing) != 1 || existing[0].Args[1].S != "b12" {
		t.Fatalf("existing = %v", existing)
	}
	// Battery dies; rjh21 gets a new badge. The update arrives as an
	// OwnsBadge event.
	if err := h.a.ReassignBadge(Badge{ID: "b99", Home: "CL"}, "rjh21"); err != nil {
		t.Fatal(err)
	}
	ob := log.named(EvOwnsBadge)
	if len(ob) != 1 || ob[0].Args[1].S != "b99" {
		t.Fatalf("OwnsBadge updates = %v", ob)
	}
}

func TestMonitoringAppAcrossBadgeChange(t *testing.T) {
	// The 5-step monitoring loop of §6.3.3, built on the composite
	// machine: whenever rjh21's badge assignment changes, watch the new
	// badge.
	h := newBadgeHarness(t)
	if err := h.a.RegisterBadge(Badge{ID: "b12", Home: "CL"}, "rjh21"); err != nil {
		t.Fatal(err)
	}

	expr := composite.MustParse(`$OwnsBadge("rjh21", b); Seen(b, room)`, composite.ParseOptions{})
	var sightings []string
	m := composite.NewMachine(expr, func(o composite.Occurrence) {
		sightings = append(sightings, o.Env["b"].S+"@"+o.Env["room"].S)
	}, composite.MachineOptions{})
	// Start strictly before the retrospective feed: base events match
	// strictly after the evaluation start time.
	m.Start(h.clk.Now().Add(-time.Second), value.Env{})

	// Wire the site's broker into the machine.
	sink := event.SinkFunc(func(n event.Notification) {
		if !n.Heartbeat {
			m.Process(n.Event)
		}
	})
	sess, err := h.a.Broker().OpenSession(sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	// DBRegister: existing tuples fed to the machine, updates live.
	_, existing, err := h.a.DBRegisterOwns(sess, "rjh21")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.a.Broker().Register(sess, event.NewTemplate(EvSeen, event.Wildcard(), event.Wildcard())); err != nil {
		t.Fatal(err)
	}
	for _, e := range existing {
		e.Time = h.clk.Now()
		m.Process(e)
	}

	h.clk.Advance(time.Second)
	h.a.Sight(Badge{ID: "b12", Home: "CL"}, "CL-s1")
	h.clk.Advance(time.Second)
	if err := h.a.ReassignBadge(Badge{ID: "b99", Home: "CL"}, "rjh21"); err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(time.Second)
	h.a.Sight(Badge{ID: "b99", Home: "CL"}, "CL-s2")

	if len(sightings) != 2 || sightings[0] != "b12@T14" || sightings[1] != "b99@T15" {
		t.Fatalf("sightings = %v", sightings)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() (string, int) {
		clk := clock.NewVirtual(time.Unix(0, 0))
		net := bus.NewNetwork(clk)
		s1, _ := NewSite("S1", clk, net)
		s2, _ := NewSite("S2", clk, net)
		sensors := map[string][]string{
			"S1": DefaultSensors(s1, 3),
			"S2": DefaultSensors(s2, 3),
		}
		sim := NewSim(clk, []*Site{s1, s2}, sensors, 42)
		for i := 0; i < 5; i++ {
			id := "b" + string(rune('0'+i))
			if err := sim.AddBadge(id, "u"+id, i%2); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run(20, 100*time.Millisecond)
		loc, _ := s1.LocationOf("b0")
		return loc, sim.Badges()
	}
	l1, n1 := run()
	l2, n2 := run()
	if l1 != l2 || n1 != n2 {
		t.Fatalf("simulation not deterministic: %q/%d vs %q/%d", l1, n1, l2, n2)
	}
}

// TestSimHomeAlwaysKnowsLocation is the figure 6.2 invariant at scale:
// after every simulation step, each badge's home site records the site
// where it was last sighted, and at most one non-home site holds its
// naming information.
func TestSimHomeAlwaysKnowsLocation(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	var sites []*Site
	sensors := map[string][]string{}
	for i := 0; i < 3; i++ {
		s, err := NewSite(fmt.Sprintf("S%d", i), clk, net)
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, s)
		sensors[s.Name()] = DefaultSensors(s, 2)
	}
	sim := NewSim(clk, sites, sensors, 7)
	for i := 0; i < 9; i++ {
		if err := sim.AddBadge(fmt.Sprintf("b%d", i), "u", i%3); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 40; step++ {
		sim.Step(50 * time.Millisecond)
		for i := 0; i < 9; i++ {
			id := fmt.Sprintf("b%d", i)
			home := sites[i%3]
			loc, ok := home.LocationOf(id)
			if !ok {
				t.Fatalf("step %d: home lost track of %s", step, id)
			}
			holders := 0
			for _, s := range sites {
				if s.Name() != home.Name() && s.Knows(id) {
					holders++
					if s.Name() != loc {
						t.Fatalf("step %d: %s's info cached at %s but located at %s",
							step, id, s.Name(), loc)
					}
				}
			}
			if holders > 1 {
				t.Fatalf("step %d: %s known at %d foreign sites", step, id, holders)
			}
		}
	}
}
