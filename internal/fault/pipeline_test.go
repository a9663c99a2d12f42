package fault

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/event"
)

// echoRecorder counts how many times each argument is executed, so the
// test can prove the pre-send-only retry rule: a call that reached the
// server is never re-sent, hence never re-executed.
type echoRecorder struct {
	mu    sync.Mutex
	execs map[echoArg]int
}

// echoArg is the call payload: the wire carries registered types only,
// so the test registers its own at a tag in the 200+ range that no
// protocol package allocates.
type echoArg string

func init() {
	bus.RegisterWirePayload(201, echoArg(""),
		func(e *bus.WireEnc, v any) error {
			a, ok := v.(echoArg)
			if !ok {
				return fmt.Errorf("not echoArg: %T", v)
			}
			e.PutString(string(a))
			return nil
		},
		func(d *bus.WireDec) (any, error) {
			s, err := d.String()
			return echoArg(s), err
		})
}

func (r *echoRecorder) Call(from, op string, arg any) (any, error) {
	s, _ := arg.(echoArg)
	r.mu.Lock()
	if r.execs == nil {
		r.execs = make(map[echoArg]int)
	}
	r.execs[s]++
	r.mu.Unlock()
	return arg, nil
}

func (r *echoRecorder) Deliver(event.Notification) {}

// TestPipelinedCallsUnderFaults hammers one pipelined TCP link with
// concurrent calls while the fault plane drops and delays notifications
// on the same link and repeatedly severs/restores it. Invariants:
//
//   - every successful call's reply is its own argument (the pipelined
//     writer and the seq/waiter table never cross-wire replies);
//   - the server executes each unique argument at most once (the bus
//     sends a call once and never repeats it);
//   - once the link is restored, calls succeed again.
func TestPipelinedCallsUnderFaults(t *testing.T) {
	serverNet := bus.NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	rec := &echoRecorder{}
	if err := serverNet.Register("svc", rec); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	defer ln.Close()
	go func() { _ = serverNet.ServeTCP(ln) }()

	clk := clock.NewVirtual(time.Unix(0, 0))
	clientNet := bus.NewNetwork(clk)
	if err := clientNet.Register("caller", &sink{}); err != nil {
		t.Fatal(err)
	}
	if err := clientNet.AddRemote("svc", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer clientNet.CloseRemotes()
	if f := clientNet.RemoteWireFormat("svc"); f != bus.WireBinary {
		t.Fatalf("link speaks %q, want the pipelined binary path", f)
	}

	plane := New(clk, 1234)
	plane.Install(clientNet)
	plane.SetFaults("caller", "svc", Faults{Drop: 0.3, Jitter: 20 * time.Millisecond})

	const workers = 8
	const callsPerWorker = 200

	var wg sync.WaitGroup
	stopChurn := make(chan struct{})

	// Churn: sever and restore the link while traffic is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				plane.Restore("caller", "svc")
				return
			default:
			}
			if i%2 == 0 {
				plane.Sever("caller", "svc")
			} else {
				plane.Restore("caller", "svc")
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Notification spam shares the pipelined writer with the calls and
	// takes the policy's drop/delay verdicts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < workers*callsPerWorker/4; i++ {
			clientNet.Send("caller", "svc", event.Notification{Source: "caller", Seq: uint64(i)})
		}
	}()

	errs := make([]error, workers)
	var ok sync.Map // arg → true for calls that returned successfully
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPerWorker; i++ {
				arg := echoArg(fmt.Sprintf("g%d-%d", w, i))
				got, err := clientNet.Call("caller", "svc", "echo", arg)
				if err != nil {
					// Severed window: pre-send failure. Pace the loop so a
					// worker cannot burn its whole workload inside one
					// severed window before the churn ever restores the
					// link (the arg is not re-issued — a sent call may
					// have executed, and re-sending would fake a retry).
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if got != arg {
					errs[w] = fmt.Errorf("reply cross-wired: sent %q, got %v", arg, got)
					return
				}
				ok.Store(arg, true)
			}
		}(w)
	}

	// Stop the churn once the workers drain, then wait for everyone.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.After(30 * time.Second)
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		case <-time.After(5 * time.Millisecond):
			select {
			case <-stopChurn:
			default:
				// Keep the churn running only while calls are in flight;
				// close after a while so severed windows cannot starve
				// the workers forever.
				close(stopChurn)
			}
		case <-deadline:
			t.Fatal("test wedged: workers did not finish")
		}
	}

	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	rec.mu.Lock()
	succeeded := 0
	ok.Range(func(any, any) bool { succeeded++; return true })
	for arg, n := range rec.execs {
		if n > 1 {
			rec.mu.Unlock()
			t.Fatalf("call %q executed %d times: a sent call was retried", arg, n)
		}
	}
	executed := len(rec.execs)
	rec.mu.Unlock()
	if succeeded == 0 {
		t.Fatal("no call succeeded; churn never let traffic through")
	}
	if executed < succeeded {
		t.Fatalf("%d calls succeeded but only %d executed", succeeded, executed)
	}

	// The plane ends restored: the link must work again.
	if got, err := clientNet.Call("caller", "svc", "echo", echoArg("after-restore")); err != nil || got != echoArg("after-restore") {
		t.Fatalf("call after restore = %v, %v", got, err)
	}
}
