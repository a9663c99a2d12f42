package fault

import (
	"strings"
	"sync"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/event"
)

type sink struct {
	mu    sync.Mutex
	notes []event.Notification
}

func (s *sink) Call(from, op string, arg any) (any, error) { return arg, nil }
func (s *sink) Deliver(n event.Notification) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notes = append(s.notes, n)
}
func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.notes)
}

// drive pushes a fixed traffic pattern through a fresh plane and
// returns the transcript.
func drive(seed int64) string {
	clk := clock.NewVirtual(time.Unix(0, 0))
	p := New(clk, seed)
	p.SetFaults("A", "B", Faults{Drop: 0.3, Dup: 0.2, Jitter: 40 * time.Millisecond})
	p.SetFaults("A", "C", Faults{Drop: 0.5})
	for i := 0; i < 100; i++ {
		p.Notify("A", "B")
		p.Notify("B", "A")
		p.Notify("A", "C")
		clk.Advance(10 * time.Millisecond)
	}
	return p.Transcript()
}

func TestTranscriptDeterministic(t *testing.T) {
	t1, t2 := drive(42), drive(42)
	if t1 != t2 {
		t.Fatal("same seed produced different transcripts")
	}
	if t1 == drive(43) {
		t.Fatal("different seeds produced identical transcripts")
	}
	if !strings.Contains(t1, "drop") {
		t.Fatal("transcript records no drops at drop=0.3 over 100 sends")
	}
}

func TestPerLinkStreamsIndependent(t *testing.T) {
	// The A->B decision sequence must not depend on traffic on other
	// links: interleaving A->C sends must leave it unchanged.
	run := func(interleave bool) []bool {
		clk := clock.NewVirtual(time.Unix(0, 0))
		p := New(clk, 7)
		p.SetFaults("A", "B", Faults{Drop: 0.5})
		p.SetFaults("A", "C", Faults{Drop: 0.5})
		var drops []bool
		for i := 0; i < 50; i++ {
			if interleave {
				p.Notify("A", "C")
			}
			drops = append(drops, p.Notify("A", "B").Drop)
		}
		return drops
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("A->B decision %d changed when A->C traffic interleaved", i)
		}
	}
}

func TestDropRateTracksProbability(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	p := New(clk, 1)
	p.SetFaults("A", "B", Faults{Drop: 0.3})
	dropped := 0
	for i := 0; i < 1000; i++ {
		if p.Notify("A", "B").Drop {
			dropped++
		}
	}
	if dropped < 230 || dropped > 370 {
		t.Fatalf("dropped %d of 1000 at p=0.3", dropped)
	}
	if p.Drops() != int64(dropped) {
		t.Fatalf("Drops() = %d, counted %d", p.Drops(), dropped)
	}
}

func TestPartitionCutsAcrossNotWithin(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	p := New(clk, 1)
	p.Split("net", []string{"A", "B"}, []string{"C", "D"})
	for _, tc := range []struct {
		from, to string
		blocked  bool
	}{
		{"A", "C", true}, {"C", "A", true}, {"B", "D", true},
		{"A", "B", false}, {"C", "D", false}, {"A", "X", false},
	} {
		if got := p.Blocked(tc.from, tc.to); got != tc.blocked {
			t.Errorf("Blocked(%s,%s) = %v, want %v", tc.from, tc.to, got, tc.blocked)
		}
		wantDrop := tc.blocked
		if got := p.Notify(tc.from, tc.to).Drop; got != wantDrop {
			t.Errorf("Notify(%s,%s).Drop = %v, want %v", tc.from, tc.to, got, wantDrop)
		}
	}
	p.Heal("net")
	if p.Blocked("A", "C") {
		t.Fatal("healed partition still blocks")
	}
}

func TestScheduleFiresOnClock(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	p := New(clk, 1)
	p.SetSchedule([]Step{
		{At: 10 * time.Second, Kind: "sever", A: "A", B: "B"},
		{At: 30 * time.Second, Kind: "restore", A: "A", B: "B"},
		{At: 5 * time.Second, Kind: "faults", A: "A", B: "C", Faults: Faults{Drop: 1}},
	})
	if p.Blocked("A", "B") || p.Notify("A", "C").Drop {
		t.Fatal("schedule fired before its time")
	}
	clk.Advance(6 * time.Second)
	if !p.Notify("A", "C").Drop {
		t.Fatal("faults step did not fire at 5s")
	}
	if p.Blocked("A", "B") {
		t.Fatal("sever fired early")
	}
	clk.Advance(6 * time.Second) // t=12s
	if !p.Blocked("A", "B") {
		t.Fatal("sever did not fire at 10s")
	}
	clk.Advance(20 * time.Second) // t=32s
	p.Tick()
	if p.Blocked("A", "B") {
		t.Fatal("restore did not fire at 30s")
	}
}

func TestParseSchedule(t *testing.T) {
	src := `
# warm-up, then a lossy phase, then a partition that heals
at 0s    faults login conf drop=0.2 dup=0.1 delay=5ms jitter=20ms
at 10s   sever login conf
at 12s   restore login conf
at 20s   split core login,conf clientA,clientB
at 40s   heal core
`
	steps, err := ParseSchedule(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 5 {
		t.Fatalf("parsed %d steps, want 5", len(steps))
	}
	f := steps[0].Faults
	if f.Drop != 0.2 || f.Dup != 0.1 || f.Delay != 5*time.Millisecond || f.Jitter != 20*time.Millisecond {
		t.Fatalf("faults = %+v", f)
	}
	if steps[3].Kind != "split" || len(steps[3].Side1) != 2 || steps[3].Side2[1] != "clientB" {
		t.Fatalf("split = %+v", steps[3])
	}
	for _, bad := range []string{
		"sever a b",                // missing 'at'
		"at x sever a b",           // bad offset
		"at -1s sever a b",         // negative offset
		"at 1s sever a",            // missing peer
		"at 1s faults a b drop=2",  // probability out of range
		"at 1s faults a b wait=1s", // unknown option
		"at 1s split p a,b",        // missing side
		"at 1s explode a b",        // unknown verb
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestPlaneOnNetwork(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	n := bus.NewNetwork(clk)
	dst := &sink{}
	if err := n.Register("B", dst); err != nil {
		t.Fatal(err)
	}
	p := New(clk, 9)
	p.Install(n)

	// Total loss: nothing delivered, drops counted on the network.
	p.SetFaults("A", "B", Faults{Drop: 1})
	before := n.Count("dropped")
	for i := 0; i < 5; i++ {
		n.Send("A", "B", event.Notification{Seq: uint64(i)})
	}
	if dst.count() != 0 {
		t.Fatal("notifications crossed a drop=1 link")
	}
	if n.Count("dropped")-before != 5 {
		t.Fatalf("network counted %d drops, want 5", n.Count("dropped")-before)
	}

	// Duplication: exactly two copies arrive.
	p.SetFaults("A", "B", Faults{Dup: 1})
	n.Send("A", "B", event.Notification{Seq: 100})
	if dst.count() != 2 {
		t.Fatalf("dup=1 delivered %d copies, want 2", dst.count())
	}

	// Partition severs calls through the policy, and heals.
	p.Split("p", []string{"A"}, []string{"B"})
	if _, err := n.Call("A", "B", "echo", 1); err == nil {
		t.Fatal("call crossed partition")
	}
	p.Heal("p")
	if _, err := n.Call("A", "B", "echo", 1); err != nil {
		t.Fatalf("call after heal failed: %v", err)
	}

	// Jitter delays go through the bus delivery queue.
	p.SetFaults("A", "B", Faults{Delay: 50 * time.Millisecond})
	n.Send("A", "B", event.Notification{Seq: 200})
	if dst.count() != 2 {
		t.Fatal("delayed notification arrived immediately")
	}
	clk.Advance(time.Second)
	n.Flush()
	if dst.count() != 3 {
		t.Fatalf("delayed notification lost: %d", dst.count())
	}
}
