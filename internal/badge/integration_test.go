package badge

import (
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

// monitorEndpoint is a monitoring client attached to the network so
// that link delay and failure injection apply to its event stream.
type monitorEndpoint struct {
	mu sync.Mutex
	m  *composite.Machine
}

func (e *monitorEndpoint) Call(from, op string, arg any) (any, error) { return nil, nil }

func (e *monitorEndpoint) Deliver(n event.Notification) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.m.ProcessHorizon(n.Source, n.Horizon)
	if !n.Heartbeat {
		e.m.Process(n.Event)
	}
}

// TestDelayedSiteDetectionOrder is figure 6.4 over the real substrate:
// a composite detector subscribed to two badge sites, with the link
// from one site delayed. The meeting at the fast site is detected as
// soon as its events arrive; the delayed site's meeting is detected
// when its events finally flush; nothing is lost.
func TestDelayedSiteDetectionOrder(t *testing.T) {
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	net := bus.NewNetwork(clk)
	siteA, err := NewSite("T14site", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	siteB, err := NewSite("T15site", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	siteA.AddSensor("a1", "T14")
	siteB.AddSensor("b1", "T15")
	roger := Badge{ID: "roger", Home: "T14site"}
	giles := Badge{ID: "giles", Home: "T14site"}
	if err := siteA.RegisterBadge(roger, "roger"); err != nil {
		t.Fatal(err)
	}
	if err := siteA.RegisterBadge(giles, "giles"); err != nil {
		t.Fatal(err)
	}

	var detections []string
	mon := &monitorEndpoint{}
	mon.m = composite.NewMachine(
		composite.MustParse(`$Seen("roger", R); Seen("giles", R)`, composite.ParseOptions{}),
		func(o composite.Occurrence) {
			// Deliver already serialises machine input; the callback runs
			// under its lock.
			detections = append(detections, o.Env["R"].S)
		},
		composite.MachineOptions{})
	mon.m.Start(clk.Now(), value.Env{})
	if err := net.Register("Monitor", mon); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Site{siteA, siteB} {
		sess, err := s.Broker().OpenSession(net.Sink(s.Name(), "Monitor"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Broker().Register(sess,
			event.NewTemplate(EvSeen, event.Wildcard(), event.Wildcard())); err != nil {
			t.Fatal(err)
		}
	}

	// Site A's link to the monitor is slow.
	links := fault.New(clk, 1)
	links.Install(net)
	links.SetFaults("T14site", "Monitor", fault.Faults{Delay: 30 * time.Second})

	// Meeting 1 in T14 (site A, delayed), meeting 2 in T15 (site B).
	siteA.Sight(roger, "a1")
	clk.Advance(time.Second)
	siteA.Sight(giles, "a1")
	clk.Advance(time.Second)
	siteB.Sight(roger, "b1")
	clk.Advance(time.Second)
	siteB.Sight(giles, "b1")

	if len(detections) != 1 || detections[0] != "T15" {
		t.Fatalf("before flush: detections = %v, want [T15]", detections)
	}

	// The delayed notifications arrive: the earlier meeting is detected
	// too — both evaluations ultimately return the same results
	// (figure 6.4's note).
	clk.Advance(time.Minute)
	net.Flush()
	if len(detections) != 2 || detections[1] != "T14" {
		t.Fatalf("after flush: detections = %v, want [T15 T14]", detections)
	}
}

// TestPartitionedSiteHeartbeatDetection: with a failed link, the
// monitor's receiver detects the silent site via CheckLiveness (§4.10
// applied to the badge system).
func TestPartitionedSiteHeartbeatDetection(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	site, err := NewSite("CL", clk, net)
	if err != nil {
		t.Fatal(err)
	}
	recv := event.NewReceiver(nil)
	if err := net.Register("Monitor", busEndpoint{recv}); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Broker().OpenSession(net.Sink("CL", "Monitor"), nil); err != nil {
		t.Fatal(err)
	}
	site.Broker().Heartbeat()
	if failed := recv.CheckLiveness(clk.Now(), 5*time.Second); len(failed) != 0 {
		t.Fatalf("premature failure: %v", failed)
	}
	links := fault.New(clk, 1)
	links.Install(net)
	links.Sever("CL", "Monitor")
	clk.Advance(time.Minute)
	site.Broker().Heartbeat() // dropped
	failed := recv.CheckLiveness(clk.Now(), 5*time.Second)
	if len(failed) != 1 || failed[0] != "CL" {
		t.Fatalf("failed = %v", failed)
	}
}

// busEndpoint adapts a Receiver to bus.Endpoint.
type busEndpoint struct{ r *event.Receiver }

func (b busEndpoint) Call(from, op string, arg any) (any, error) { return nil, nil }
func (b busEndpoint) Deliver(n event.Notification)               { b.r.Deliver(n) }
