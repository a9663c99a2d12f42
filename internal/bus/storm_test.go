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

// covered sums what a peer's deliveries account for: a coalesced
// notification stands for itself and the sequence numbers it absorbed
// (§4.10), a heartbeat for nothing but itself.
func covered(notes []event.Notification) (seqs, heartbeats int) {
	for _, n := range notes {
		if n.Heartbeat {
			heartbeats++
		} else {
			seqs += 1 + int(n.Coalesced)
		}
	}
	return seqs, heartbeats
}

// TestStormAccountsForEverySignal drives the whole in-process plane —
// broker matching, bus routing, the batch path — from several
// goroutines at once and requires that nothing signalled goes missing:
// every watcher sees every signal when nothing is batched, and when
// spans of updates to one record are batched and coalesce, the
// delivered notifications still cover every sequence number. Concurrent
// heartbeats reach every session once each.
func TestStormAccountsForEverySignal(t *testing.T) {
	const records, watchers, signallers, perSignaller, span = 64, 4, 4, 512, 16
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			clk := clock.NewVirtual(time.Unix(0, 0))
			n := NewNetwork(clk)
			n.SetCoalesceRule(testRule)
			broker := event.NewBroker("S", clk, event.BrokerOptions{})
			peers := make([]*batchPeer, watchers)
			for w := range peers {
				peers[w] = &batchPeer{}
				name := fmt.Sprintf("W%d", w)
				if err := n.Register(name, peers[w]); err != nil {
					t.Fatal(err)
				}
				sess, err := broker.OpenSession(n.Sink("S", name), nil)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < records; r++ {
					tmpl := event.NewTemplate("Modified",
						event.Lit(value.Str(fmt.Sprint(r))), event.Wildcard(), event.Wildcard())
					if _, err := broker.Register(sess, tmpl); err != nil {
						t.Fatal(err)
					}
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < signallers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perSignaller; i += span {
						// One record per span, so a batched span coalesces.
						ref := fmt.Sprint((g*perSignaller + i) / span % records)
						if batched {
							n.StartBatch("S")
						}
						for k := 0; k < span; k++ {
							broker.Signal(event.New("Modified", value.Str(ref), value.Int(int64(k%2)), value.Int(0)))
						}
						if batched {
							n.EndBatch("S")
						}
					}
					broker.Heartbeat()
				}(g)
			}
			wg.Wait()
			for w, p := range peers {
				notes, _, _ := p.snapshot()
				seqs, beats := covered(notes)
				if want := signallers * perSignaller; seqs != want {
					t.Fatalf("watcher %d: deliveries cover %d signals, want %d", w, seqs, want)
				}
				if beats != signallers {
					t.Fatalf("watcher %d: %d heartbeats, want %d", w, beats, signallers)
				}
				// Unbatched nothing may coalesce; batched, spans on one record must.
				if absorbed := seqs - (len(notes) - beats); (absorbed > 0) != batched {
					t.Fatalf("watcher %d: %d signals absorbed by coalescing with batched=%v", w, absorbed, batched)
				}
			}
		})
	}
}

// TestTCPBurstDeliversEveryNote pushes one-way notifications across the
// TCP bridge, one send at a time and then in batched spans (one encode
// run and one flush per span). Every note names a record of its own, so
// nothing may coalesce: the far side must see each of them, in order.
func TestTCPBurstDeliversEveryNote(t *testing.T) {
	const burst, span = 2048, 64
	netA := NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	far := &batchPeer{}
	if err := netA.Register("svc", far); err != nil {
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
	if err := netB.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer netB.CloseRemotes()

	for i := 0; i < burst; i++ {
		if i >= burst/2 && i%span == 0 {
			netB.StartBatch("caller")
		}
		note := modNote(1, uint64(i+1), fmt.Sprint(i), 1, 0)
		note.Source = "caller"
		netB.Send("caller", "svc", note)
		if i >= burst/2 && i%span == span-1 {
			netB.EndBatch("caller")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		notes, _, _ := far.snapshot()
		if len(notes) == burst {
			for i, got := range notes {
				if got.Seq != uint64(i+1) || got.Coalesced != 0 {
					t.Fatalf("note %d arrived as seq %d, coalesced %d", i, got.Seq, got.Coalesced)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("TCP burst: %d of %d notes arrived", len(notes), burst)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
