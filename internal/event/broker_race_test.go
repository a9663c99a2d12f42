package event

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/value"
)

// seqCheckSink asserts the §4.10 per-session contract under concurrency:
// every delivery extends the stream by exactly one — in order, no gap,
// nothing delivered twice.
type seqCheckSink struct {
	t    *testing.T
	mu   sync.Mutex
	last uint64
}

func (s *seqCheckSink) Deliver(n Notification) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n.Seq != s.last+1 {
		s.t.Errorf("session %d: seq %d after %d", n.SessionID, n.Seq, s.last)
	}
	s.last = n.Seq
}

// TestBrokerConcurrentLifecycle hammers every broker entry point from
// concurrent goroutines. Run under -race; the assertions are the
// per-session ordering contract and the absence of panics or deadlocks.
func TestBrokerConcurrentLifecycle(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	b := NewBroker("S", clk, BrokerOptions{})
	tmpl := NewTemplate("Modified", Lit(value.Str("r1")), Wildcard())

	var churnWG sync.WaitGroup
	done := make(chan struct{})
	const churners = 4
	for i := 0; i < churners; i++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for j := 0; j < 150; j++ {
				sink := &seqCheckSink{t: t}
				sess, err := b.OpenSession(sink, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := b.Register(sess, tmpl); err != nil {
					t.Error(err)
					return
				}
				if j%3 == 0 {
					// Wildcard registration on the same session: two
					// registrations may match one Signal.
					if _, err := b.Register(sess, NewTemplate("Modified", Wildcard(), Wildcard())); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := b.SessionSeq(sess); err != nil {
					t.Error(err)
					return
				}
				if err := b.CloseSession(sess); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() { churnWG.Wait(); close(done) }()

	var helperWG sync.WaitGroup
	var signalled atomic.Int64
	running := func(k int) bool {
		// A floor of iterations guarantees overlap even if the session
		// churn finishes before these goroutines are scheduled.
		if k < 100 {
			return true
		}
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	for i := 0; i < 2; i++ {
		helperWG.Add(1)
		go func() {
			defer helperWG.Done()
			for k := 0; running(k); k++ {
				b.Signal(New("Modified", value.Str("r1"), value.Int(1)))
				signalled.Add(1)
			}
		}()
	}
	helperWG.Add(1)
	go func() {
		defer helperWG.Done()
		for k := 0; running(k); k++ {
			b.Heartbeat()
		}
	}()
	<-done
	helperWG.Wait()
	if b.SessionCount() != 0 {
		t.Fatalf("SessionCount = %d after all sessions closed", b.SessionCount())
	}
	if signalled.Load() == 0 {
		t.Fatal("signal goroutines never ran")
	}
}
