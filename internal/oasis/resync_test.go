package oasis

import (
	"expvar"
	"net"
	"sync"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// The tests of this file hold the rule that a resync is started and
// never waited for (suspicion.go): a source's notes wait behind its
// snapshot, and nothing a delivery, a gap or the duty loop runs calls a
// peer.

// afterRead is an issuer's store that runs a hook once, right after the
// next Resolve of one record: inside a resync that already watches the
// record, after the caller's session seq and the record's state are
// read and before the reply leaves.
type afterRead struct {
	credrec.Recorder
	mu   sync.Mutex
	ref  credrec.Ref
	hook func()
}

func (r *afterRead) arm(ref credrec.Ref, hook func()) {
	r.mu.Lock()
	r.ref, r.hook = ref, hook
	r.mu.Unlock()
}

func (r *afterRead) Resolve(ref credrec.Ref) (credrec.State, bool, error) {
	st, perm, err := r.Recorder.Resolve(ref)
	r.mu.Lock()
	hook := r.hook
	if ref != r.ref {
		hook = nil
	}
	if hook != nil {
		r.hook = nil
	}
	r.mu.Unlock()
	if hook != nil {
		hook()
	}
	return st, perm, err
}

// sourceVar reads one source's entry of Vars' "sources".
func sourceVar(s *Service, source string) map[string]any {
	v, _ := s.Vars().Get("sources").(expvar.Func).Value().(map[string]any)[source].(map[string]any)
	return v
}

// within polls cond for up to d of real time.
func within(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// degradedWatch has Conf watch a fact of Login's, lets Login fall
// silent until Conf holds it Suspect, and then has Conf validate a
// login at Login, which proves it alive without delivering a note: the
// next suspicion tick resyncs it.
func degradedWatch(t *testing.T, h *harness, fact credrec.Ref) credrec.Ref {
	t.Helper()
	local, err := h.conf.watchRecord("Login", fact)
	if err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(8 * time.Second)
	h.conf.SuspicionTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceSuspect {
		t.Fatalf("Login is %v at Conf after 8 s of silence, want suspect", st)
	}
	c := h.client("ely")
	if _, _, err := h.conf.WatchCertificate(h.logOn(t, c, "dm"), c); err != nil {
		t.Fatal(err)
	}
	return local
}

// TestResyncSnapshotBeforeLaterNotes: the issuer flips a watched record,
// not permanently, after its resync has read the caller's session seq
// and the record's state. The flip's note is numbered above the
// snapshot, so the watcher must apply it after the snapshot, never
// before it, where the snapshot would roll it back. The in-process
// tick-triggered resync hears the note while its own call is under way;
// over TCP a reviving heartbeat starts the resync on the link's read
// loop, and the note arrives on that loop, as a rule ahead of the
// resync's reply.
func TestResyncSnapshotBeforeLaterNotes(t *testing.T) {
	t.Run("tick", func(t *testing.T) {
		store := &afterRead{Recorder: credrec.NewStore()}
		h := newHarnessWith(t, Options{Store: store}, Options{HeartbeatEvery: 5 * time.Second, AutoResync: true})
		fact := store.NewFact(credrec.True)
		local := degradedWatch(t, h, fact)
		store.arm(fact, func() {
			if err := store.SetState(fact, credrec.False); err != nil {
				t.Error(err)
			}
		})
		h.conf.SuspicionTick()
		h.conf.settle()
		if st := h.conf.SourceStatus("Login"); st != SourceAlive {
			t.Fatalf("Login is %v at Conf after the tick's resync, want alive", st)
		}
		if st, _ := h.conf.Store().Lookup(local); st != credrec.False {
			t.Fatalf("surrogate %v after the resync, want False: the snapshot rolled the later flip back", st)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		store := &afterRead{Recorder: credrec.NewStore()}
		p := newTCPPair(t, store)
		fact := store.NewFact(credrec.True)
		local, err := p.conf.watchRecord("Login", fact)
		if err != nil {
			t.Fatal(err)
		}
		p.degrade(t)
		store.arm(fact, func() {
			if err := store.SetState(fact, credrec.False); err != nil {
				t.Error(err)
			}
		})
		p.login.HeartbeatTick()
		p.revived(t)
		// The flip's note may still be on its way: a broker session that
		// another goroutine is draining (here the heartbeat's) sends it
		// after the resync's reply. Arriving late, it lands after the
		// snapshot all the same; rolled back, it is gone for good.
		if !within(5*time.Second, func() bool { st, _ := p.conf.Store().Lookup(local); return st == credrec.False }) {
			st, _ := p.conf.Store().Lookup(local)
			t.Fatalf("surrogate %v 5 s after the resync, want False: the snapshot rolled the later flip back", st)
		}
	})
}

// TestResyncHoldBound: the notes a resync holds are bounded as the
// issuer bounds what it queues for one watcher. Past the bound the hold
// is dropped, and with it the proof that the snapshot missed nothing:
// the source stays Suspect after the resync, the held flip is lost, and
// the next tick's resync converges.
func TestResyncHoldBound(t *testing.T) {
	store := &afterRead{Recorder: credrec.NewStore()}
	h := newHarnessWith(t, Options{Store: store}, Options{HeartbeatEvery: 5 * time.Second, AutoResync: true})
	fact := store.NewFact(credrec.True)
	local := degradedWatch(t, h, fact)
	var mid map[string]any
	store.arm(fact, func() {
		if err := store.SetState(fact, credrec.False); err != nil {
			t.Error(err)
		}
		mid = sourceVar(h.conf, "Login")
		for range maxHeldNotes {
			h.login.HeartbeatTick()
		}
	})
	h.conf.SuspicionTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceSuspect {
		t.Fatalf("Login is %v at Conf after a resync whose hold overflowed, want suspect", st)
	}
	if st, _ := h.conf.Store().Lookup(local); st != credrec.Unknown {
		t.Fatalf("surrogate %v after a resync whose hold overflowed, want Unknown", st)
	}
	if mid["resyncing"] != true || mid["held"] != 1 {
		t.Fatalf("Login's sources entry with its flip held behind the resync: %v", mid)
	}
	if v := sourceVar(h.conf, "Login"); v["resyncing"] != false || v["held"] != 0 {
		t.Fatalf("Login's sources entry once the resync is over: %v", v)
	}
	h.conf.SuspicionTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceAlive {
		t.Fatalf("Login is %v at Conf after the next tick's resync, want alive", st)
	}
	if st, _ := h.conf.Store().Lookup(local); st != credrec.False {
		t.Fatalf("surrogate %v after the next tick's resync, want False", st)
	}
}

// heldListener stands in front of a network's peer port, as bus's
// heldPeer does inside that package: the first connection is served at
// once, every later one only once answer closes, its hello unanswered
// meanwhile. cut closes the first from the serving side.
type heldListener struct {
	addr    string
	answer  chan struct{}
	accepts int
	mu      sync.Mutex
	first   net.Conn
}

func (l *heldListener) cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.first.Close()
}

func (l *heldListener) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepts
}

// connListener is a net.Listener that yields the connections it is
// handed, so a network can serve them.
type connListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
	addr   net.Addr
}

func (l *connListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *connListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *connListener) Addr() net.Addr { return l.addr }

func serveHeld(t *testing.T, served *bus.Network) *heldListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	l := &heldListener{addr: ln.Addr().String(), answer: make(chan struct{})}
	front := &connListener{conns: make(chan net.Conn), closed: make(chan struct{}), addr: ln.Addr()}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = served.ServeTCP(front)
	}()
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			l.mu.Lock()
			l.accepts++
			held := l.accepts > 1
			if !held {
				l.first = conn
			}
			l.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if held {
					select {
					case <-l.answer:
					case <-front.closed:
						conn.Close()
						return
					}
				}
				select {
				case front.conns <- conn:
				case <-front.closed:
					conn.Close()
				}
			}()
		}
	}()
	t.Cleanup(func() {
		select {
		case <-l.answer:
		default:
			close(l.answer)
		}
		ln.Close()
		front.Close()
		l.mu.Lock()
		if l.first != nil {
			l.first.Close()
		}
		l.mu.Unlock()
		wg.Wait()
	})
	return l
}

// linkUp reports whether a network's link to a peer has a live
// connection: its writer is listed in the bus's "pending_notes".
func linkUp(n *bus.Network, peer string) bool {
	_, up := n.Vars().Get("pending_notes").(expvar.Func).Value().(map[string]int)[peer]
	return up
}

// tcpPair is Login and Conf on networks of their own, Conf dialling
// Login's peer port through a heldListener, on one virtual clock.
type tcpPair struct {
	clk         *clock.Virtual
	login, conf *Service
	loginNet    *bus.Network
	confNet     *bus.Network
	front       *heldListener
}

func newTCPPair(t *testing.T, loginStore credrec.Recorder) *tcpPair {
	t.Helper()
	RegisterWireTypes()
	p := &tcpPair{clk: clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))}
	p.loginNet, p.confNet = bus.NewNetwork(p.clk), bus.NewNetwork(p.clk)
	var err error
	if p.login, err = New("Login", p.clk, p.loginNet, Options{Store: loginStore}); err != nil {
		t.Fatal(err)
	}
	if err := p.login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	if p.conf, err = New("Conf", p.clk, p.confNet, Options{HeartbeatEvery: 5 * time.Second, AutoResync: true}); err != nil {
		t.Fatal(err)
	}
	p.front = serveHeld(t, p.loginNet)
	if err := p.confNet.AddRemote("Login", p.front.addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.confNet.CloseRemotes)
	t.Cleanup(p.loginNet.CloseRemotes)
	return p
}

// degrade lets Login fall silent at Conf until Conf holds it Suspect.
func (p *tcpPair) degrade(t *testing.T) {
	t.Helper()
	p.clk.Advance(8 * time.Second)
	p.conf.SuspicionTick()
	p.conf.settle()
	if st := p.conf.SourceStatus("Login"); st != SourceSuspect {
		t.Fatalf("Login is %v at Conf after 8 s of silence, want suspect", st)
	}
}

// revived waits for the resync a reviving note started to bring Login
// back at Conf and to deliver what it held.
func (p *tcpPair) revived(t *testing.T) {
	t.Helper()
	if !within(5*time.Second, func() bool { return p.conf.SourceStatus("Login") == SourceAlive }) {
		t.Fatalf("Login is %v at Conf 5 s after a reviving note", p.conf.SourceStatus("Login"))
	}
	p.conf.settle()
}

// TestRevivalResyncsOverItsOwnLink: a reviving heartbeat arrives on the
// link Conf dialled, and the resync it starts goes out and is answered
// on that same link, whose read loop delivered the heartbeat inline.
// Login's peer port is dialled once.
func TestRevivalResyncsOverItsOwnLink(t *testing.T) {
	p := newTCPPair(t, nil)
	fact := p.login.Store().NewFact(credrec.True)
	local, err := p.conf.watchRecord("Login", fact)
	if err != nil {
		t.Fatal(err)
	}
	p.degrade(t)
	p.login.HeartbeatTick()
	p.revived(t)
	if st, _ := p.conf.Store().Lookup(local); st != credrec.True {
		t.Fatalf("surrogate %v after the revival's resync, want True", st)
	}
	if n := p.front.accepted(); n != 1 {
		t.Fatalf("Login's peer port accepted %d connections, want the one Conf dialled", n)
	}
}

// TestServedDeliveryNeverWaits: with -remote links both ways, Login's
// notes reach Conf on a connection Conf serves, and Login's calls to
// Conf go up the same connection. Conf's own link to Login is broken
// and its redial sits on an unanswered hello. A heartbeat that revives
// Login starts a resync that needs that link; the validate Login sends
// next on the served connection must be answered meanwhile.
func TestServedDeliveryNeverWaits(t *testing.T) {
	RegisterWireTypes()
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	loginNet, confNet := bus.NewNetwork(clk), bus.NewNetwork(clk)
	login, err := New("Login", clk, loginNet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	conf, err := New("Conf", clk, confNet, Options{HeartbeatEvery: 5 * time.Second, AutoResync: true})
	if err != nil {
		t.Fatal(err)
	}
	front := serveHeld(t, loginNet)
	confLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = confNet.ServeTCP(confLn) }()
	t.Cleanup(func() { confLn.Close() })
	if err := loginNet.AddRemote("Conf", confLn.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(loginNet.CloseRemotes)
	if err := confNet.AddRemote("Login", front.addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(confNet.CloseRemotes)
	if err := conf.AddRolefile("main", guestRolefile); err != nil {
		t.Fatal(err)
	}

	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()
	loggedOn, err := login.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{value.Object("Login.userid", "dm"), value.Object("Login.host", "ely")}})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := enterGuest(conf, c, loggedOn)
	if err != nil {
		t.Fatal(err)
	}

	front.cut()
	if !within(5*time.Second, func() bool { return !linkUp(confNet, "Login") }) {
		t.Fatal("Conf's link to Login still up 5 s after its connection was cut")
	}
	clk.Advance(8 * time.Second)
	conf.SuspicionTick()
	if st := conf.SourceStatus("Login"); st != SourceSuspect {
		t.Fatalf("Login is %v at Conf after 8 s of silence, want suspect", st)
	}

	login.HeartbeatTick()
	answered := make(chan error, 1)
	go func() {
		_, err := loginNet.Call("Login", "Conf", "validate", ValidateArg{Cert: guest, Client: c})
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("validate behind the reviving heartbeat: %v", err)
		}
	case <-time.After(bus.CallDeadline / 5):
		t.Fatalf("validate behind a reviving heartbeat unanswered after %v: the delivery waits on the resync", bus.CallDeadline/5)
	}
	if v := sourceVar(conf, "Login"); v["resyncing"] != true {
		t.Fatalf("Login's sources entry while its resync sits on the held hello: %v", v)
	}

	close(front.answer)
	if !within(5*time.Second, func() bool { return conf.SourceStatus("Login") == SourceAlive }) {
		t.Fatalf("Login is %v at Conf 5 s after the hello was answered", conf.SourceStatus("Login"))
	}
	conf.settle()
	if err := conf.Validate(guest, c); err != nil {
		t.Fatalf("the resync did not restore the guest: %v", err)
	}
}

// TestHeldSourceDelaysNoHeartbeat: Conf restarts over a store that
// holds a surrogate of Login's, so Login is Suspect at boot and the
// first duty tick resyncs it; Login's peer port holds that resync's
// hello. Conf's duties run on the virtual clock meanwhile, and Audit
// watches one of Conf's certificates. Each of Conf's heartbeats must
// reach Audit within a period of the last (give or take the two steps
// the test advances the clock by), no tick may take a period, Audit
// never suspects Conf, and once the hello is answered Login is
// resynced.
func TestHeldSourceDelaysNoHeartbeat(t *testing.T) {
	// Six periods pass on the virtual clock before the hello is answered,
	// short of the held resync's call deadline.
	const period = time.Second
	const step = period / 5
	RegisterWireTypes()
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	loginNet, confNet := bus.NewNetwork(clk), bus.NewNetwork(clk)
	login, err := New("Login", clk, loginNet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fact := login.Store().NewFact(credrec.True)
	front := serveHeld(t, loginNet)
	if err := confNet.AddRemote("Login", front.addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(confNet.CloseRemotes)
	front.cut()
	if !within(5*time.Second, func() bool { return !linkUp(confNet, "Login") }) {
		t.Fatal("Conf's link to Login still up 5 s after its connection was cut")
	}

	store := credrec.NewStore()
	local := store.NewExternal(credrec.SurrogateName("Login", fact), credrec.True)
	conf, err := New("Conf", clk, confNet, Options{Store: store, HeartbeatEvery: period, AutoResync: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := conf.SourceStatus("Login"); st != SourceSuspect {
		t.Fatalf("Login is %v at Conf after the restart, want suspect", st)
	}
	if err := conf.AddRolefile("main", "def Seat(u) u: Conf.userid\nSeat(u) <-\n"); err != nil {
		t.Fatal(err)
	}
	audit, err := New("Audit", clk, confNet, Options{HeartbeatEvery: period})
	if err != nil {
		t.Fatal(err)
	}
	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()
	seat, err := conf.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "Seat",
		Args: []value.Value{value.Object("Conf.userid", "dm")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := audit.WatchCertificate(seat, c); err != nil {
		t.Fatal(err)
	}

	stop := conf.StartDuties()
	defer stop()
	heard := func() time.Time { h, _ := audit.receiver.Horizon("Conf"); return h }
	last, beats := heard(), 0
	for range 6 * int(period/step) {
		clk.Advance(step)
		// A tick the step made due heartbeats first; give the loop a
		// moment to run it and to arm its next timer.
		within(20*time.Millisecond, func() bool { return heard().After(last) })
		time.Sleep(2 * time.Millisecond)
		if h := heard(); h.After(last) {
			if gap := h.Sub(last); gap > period+2*step {
				t.Fatalf("Conf heartbeats %v apart while Login holds its resync, want within %v", gap, period+2*step)
			}
			last, beats = h, beats+1
		} else if gap := clk.Now().Sub(last); gap > period+2*step {
			t.Fatalf("no heartbeat from Conf for %v while Login holds its resync, want one a period", gap)
		}
		audit.SuspicionTick()
		if st := audit.SourceStatus("Conf"); st != SourceAlive {
			t.Fatalf("Conf is %v at Audit while Login holds Conf's resync", st)
		}
	}
	if beats < 5 {
		t.Fatalf("%d heartbeats from Conf in six periods", beats)
	}
	duty := conf.Vars().Get("duty").(expvar.Func).Value().(map[string]float64)
	if duty["longest_s"] >= period.Seconds() {
		t.Fatalf("Conf's longest duty tick took %v s, want under a period", duty["longest_s"])
	}
	if v := sourceVar(conf, "Login"); v["resyncing"] != true {
		t.Fatalf("Login's sources entry while its resync sits on the held hello: %v", v)
	}

	close(front.answer)
	if !within(5*time.Second, func() bool { return conf.SourceStatus("Login") == SourceAlive }) {
		t.Fatalf("Login is %v at Conf 5 s after the hello was answered", conf.SourceStatus("Login"))
	}
	conf.settle()
	if st, _ := conf.Store().Lookup(local); st != credrec.True {
		t.Fatalf("surrogate %v after the resync, want True", st)
	}
}
