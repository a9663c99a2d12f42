// Notification-plane benchmarks (E28): the paper's rapid-revocation
// guarantee (§4.9–§4.10) is only as good as the throughput of the
// Modified-event and heartbeat fan-out path. These benchmarks drive the
// full plane — broker matching, bus routing, transport delivery — at
// the shapes a busy interworking mesh sees: a revocation storm over a
// large watched record set, heartbeat fan-out to many sessions, and
// notification bursts over the TCP bridge. Run with `-cpu 1,4,8`;
// EXPERIMENTS.md E28 records pre-PR (single bus/broker mutex) versus
// batched/sharded numbers.
package benchmarks

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/event"
	"oasis/internal/value"
)

// nettestListener opens a loopback listener for the TCP benchmarks.
func nettestListener() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

const benchModifiedEvent = "Oasis.Modified" // oasis.ModifiedEvent

// countEndpoint is a bus endpoint that counts delivered notifications
// and the sequence numbers they cover (a coalesced notification covers
// 1+Coalesced, §4.10).
type countEndpoint struct {
	notes   atomic.Int64
	covered atomic.Int64
}

func (c *countEndpoint) Call(from, op string, arg any) (any, error) { return nil, nil }
func (c *countEndpoint) Deliver(n event.Notification) {
	c.notes.Add(1)
	c.covered.Add(int64(1 + n.Coalesced))
}

// batchCountEndpoint additionally takes the DeliverBatch fast path.
type batchCountEndpoint struct{ countEndpoint }

func (c *batchCountEndpoint) DeliverBatch(notes []event.Notification) {
	c.notes.Add(int64(len(notes)))
	for _, n := range notes {
		c.covered.Add(int64(1 + n.Coalesced))
	}
}

// stormRule mirrors the oasis Modified coalescing rule for the
// benchmark event shape.
var stormRule = bus.CoalesceRule{
	Key: func(ev event.Event) string {
		if ev.Name != benchModifiedEvent || len(ev.Args) != 3 {
			return ""
		}
		return ev.Args[0].S
	},
	Sticky: func(ev event.Event) bool {
		return len(ev.Args) == 3 && ev.Args[1].I == 0 && ev.Args[2].I != 0
	},
}

// newStormWorld builds the E28 revocation-storm topology: one source
// broker on a network, `watchers` watcher endpoints, and `records`
// watched credential-record refs, every watcher registered for every
// record (the §4.9.2 Modified template: literal ref, wildcard state and
// permanence).
func newStormWorld(b *testing.B, records, watchers int, batched bool) (*bus.Network, *event.Broker, []string, []*countEndpoint) {
	b.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	net.SetCoalesceRule(stormRule)
	broker := event.NewBroker("S", clk, event.BrokerOptions{})
	refs := make([]string, records)
	for i := range refs {
		refs[i] = strconv.FormatUint(uint64(i+1), 16)
	}
	eps := make([]*countEndpoint, watchers)
	for w := 0; w < watchers; w++ {
		var ep bus.Endpoint
		if batched {
			bce := &batchCountEndpoint{}
			ep, eps[w] = bce, &bce.countEndpoint
		} else {
			ce := &countEndpoint{}
			ep, eps[w] = ce, ce
		}
		name := fmt.Sprintf("W%d", w)
		if err := net.Register(name, ep); err != nil {
			b.Fatal(err)
		}
		sess, err := broker.OpenSession(net.Sink("S", name), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, ref := range refs {
			tmpl := event.NewTemplate(benchModifiedEvent,
				event.Lit(value.Str(ref)), event.Wildcard(), event.Wildcard())
			if _, err := broker.Register(sess, tmpl); err != nil {
				b.Fatal(err)
			}
		}
	}
	return net, broker, refs, eps
}

func modifiedEv(ref string, state int64, perm int64) event.Event {
	return event.New(benchModifiedEvent, value.Str(ref), value.Int(state), value.Int(perm))
}

// BenchmarkNotifyStormParallel is the revocation storm: concurrent
// goroutines signal Modified events for records spread across the
// watched set; each Signal must match its 8 watcher registrations out
// of records×watchers and deliver over the bus. This is the path a
// mass revocation (password-service compromise, §4.14) exercises.
func BenchmarkNotifyStormParallel(b *testing.B) {
	const records, watchers = 1024, 8
	_, broker, refs, eps := newStormWorld(b, records, watchers, false)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) * 31
		for pb.Next() {
			broker.Signal(modifiedEv(refs[i%records], 1, 0))
			i++
		}
	})
	b.StopTimer()
	var got int64
	for _, ep := range eps {
		got += ep.notes.Load()
	}
	if want := int64(b.N) * watchers; got != want {
		b.Fatalf("delivered %d notifications, want %d", got, want)
	}
}

// BenchmarkNotifyStormBatched drives repeated updates to hot records
// through the batch path: each goroutine wraps a span of signals to one
// record in StartBatch/EndBatch (the shape a churning record — an ACL
// version, a flapping group membership — produces via
// oasis.batchNotify), so runs of superseded notifications collapse
// before delivery. Delivered notifications are fewer than
// signals×watchers; the covered sequence numbers must account for all
// of them (§4.10).
func BenchmarkNotifyStormBatched(b *testing.B) {
	const records, watchers, span = 1024, 8, 64
	net, broker, refs, eps := newStormWorld(b, records, watchers, true)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) * 31
		done := false
		for !done {
			ref := refs[i%records]
			i++
			net.StartBatch("S")
			for k := 0; k < span; k++ {
				if !pb.Next() {
					done = true
					break
				}
				broker.Signal(modifiedEv(ref, int64(k%2), 0))
			}
			net.EndBatch("S")
		}
	})
	b.StopTimer()
	var notes, covered int64
	for _, ep := range eps {
		notes += ep.notes.Load()
		covered += ep.covered.Load()
	}
	if want := int64(b.N) * watchers; covered != want {
		b.Fatalf("covered %d sequence numbers, want %d", covered, want)
	}
	b.ReportMetric(float64(notes)/float64(covered), "deliveries/signal")
}

// BenchmarkHeartbeatFanoutParallel measures Heartbeat() with many open
// sessions — the §4.10 background-liveness cost every service pays on
// every tick, here with concurrent tickers contending on the broker.
func BenchmarkHeartbeatFanoutParallel(b *testing.B) {
	const sessions = 256
	clk := clock.NewVirtual(time.Unix(0, 0))
	broker := event.NewBroker("S", clk, event.BrokerOptions{})
	var delivered atomic.Int64
	for i := 0; i < sessions; i++ {
		if _, err := broker.OpenSession(event.SinkFunc(func(event.Notification) {
			delivered.Add(1)
		}), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			broker.Heartbeat()
		}
	})
	b.StopTimer()
	if got, want := delivered.Load(), int64(b.N)*sessions; got != want {
		b.Fatalf("delivered %d heartbeats, want %d", got, want)
	}
}

// BenchmarkNotifyTCPStorm pushes a notification burst across the TCP
// bridge: every Send is one frame encode on the client plus one decode
// and local dispatch on the server. With an unbuffered encoder each
// notification is at least one write syscall; the buffered writer
// coalesces bursts.
func BenchmarkNotifyTCPStorm(b *testing.B) {
	clkA := clock.NewVirtual(time.Unix(0, 0))
	netA := bus.NewNetwork(clkA)
	served := &countEndpoint{}
	if err := netA.Register("svc", served); err != nil {
		b.Fatal(err)
	}
	ln, err := nettestListener()
	if err != nil {
		b.Skip("no loopback listener:", err)
	}
	defer ln.Close()
	go func() { _ = netA.ServeTCP(ln) }()

	netB := bus.NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	if err := netB.AddRemote("svc", ln.Addr().String()); err != nil {
		b.Fatal(err)
	}
	defer netB.CloseRemotes()

	note := event.Notification{Source: "caller", Event: modifiedEv("aa", 1, 0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		note.Seq = uint64(i + 1)
		netB.Send("caller", "svc", note)
	}
	// One-way sends: wait for the far side to have seen everything.
	deadline := time.Now().Add(20 * time.Second)
	for served.notes.Load() < int64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("TCP storm: delivered %d of %d", served.notes.Load(), b.N)
		}
		runtime.Gosched()
	}
}

// BenchmarkNotifyTCPStormBatched pushes the same burst through the
// batch path: spans of sends buffered by StartBatch/EndBatch leave as
// one encode run and one socket flush per span instead of one flush
// per notification.
func BenchmarkNotifyTCPStormBatched(b *testing.B) {
	const span = 64
	clkA := clock.NewVirtual(time.Unix(0, 0))
	netA := bus.NewNetwork(clkA)
	served := &countEndpoint{}
	if err := netA.Register("svc", served); err != nil {
		b.Fatal(err)
	}
	ln, err := nettestListener()
	if err != nil {
		b.Skip("no loopback listener:", err)
	}
	defer ln.Close()
	go func() { _ = netA.ServeTCP(ln) }()

	netB := bus.NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	if err := netB.AddRemote("svc", ln.Addr().String()); err != nil {
		b.Fatal(err)
	}
	defer netB.CloseRemotes()

	// Distinct refs per note: nothing coalesces, so the far side must
	// see every sequence number — this isolates the buffered-flush win.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += span {
		netB.StartBatch("caller")
		for k := i; k < i+span && k < b.N; k++ {
			netB.Send("caller", "svc", event.Notification{
				Source: "caller",
				Seq:    uint64(k + 1),
				Event:  modifiedEv(strconv.FormatInt(int64(k), 16), 1, 0),
			})
		}
		netB.EndBatch("caller")
	}
	deadline := time.Now().Add(20 * time.Second)
	for served.notes.Load() < int64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("TCP batched storm: delivered %d of %d", served.notes.Load(), b.N)
		}
		runtime.Gosched()
	}
}
