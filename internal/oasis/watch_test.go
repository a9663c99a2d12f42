package oasis

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/ids"
)

// The lifecycle of a watch (docs/PROTOCOLS.md): validate+Watch creates
// one row on each side, a permanent state releases both. The first two
// tests put a logout into the two places where a first validation used
// to lose it — with no sequence gap and healthy heartbeats, so nothing
// but an unrelated resync would ever have found out; the third counts
// the rows.

const guestRolefile = `
Guest(u) <- Login.LoggedOn(u, h)*
`

func addGuest(t *testing.T, clk clock.Clock, net *bus.Network) *Service {
	t.Helper()
	guest, err := New("Guest", clk, net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.AddRolefile("main", guestRolefile); err != nil {
		t.Fatal(err)
	}
	return guest
}

func enterGuest(guest *Service, c ids.ClientID, login *cert.RMC) (*cert.RMC, error) {
	return guest.Enter(EnterRequest{Client: c, Rolefile: "main", Role: "Guest", Creds: []*cert.RMC{login}})
}

// logoutOnWatch is an issuer's store in which the record a peer asks to
// watch is revoked at the last moment it can be without the watch
// seeing it: after everything handleValidate does before it subscribes,
// before the record is flagged for notification.
type logoutOnWatch struct {
	credrec.Recorder
	fired bool
}

func (r *logoutOnWatch) MarkNotify(ref credrec.Ref) error {
	if !r.fired {
		r.fired = true
		if err := r.Recorder.Invalidate(ref); err != nil {
			return err
		}
	}
	return r.Recorder.MarkNotify(ref)
}

// TestLogoutBeforeSubscribeIsNotLost: the issuer must read the state it
// reports after it has subscribed the caller, not before.
func TestLogoutBeforeSubscribeIsNotLost(t *testing.T) {
	store := &logoutOnWatch{Recorder: credrec.NewStore()}
	h := newHarnessWith(t, Options{Store: store}, Options{})
	guest := addGuest(t, h.clk, h.net)
	c := h.client("ely")
	login := h.logOn(t, c, "dm")

	rmc, err := enterGuest(guest, c, login)
	if !store.fired {
		t.Fatal("the foreign entry never asked to watch the login record")
	}
	if h.login.Validate(login, c) == nil {
		t.Fatal("the login certificate outlived its invalidation at the issuer")
	}
	if err == nil && guest.Validate(rmc, c) == nil {
		t.Fatal("a Guest certificate derived from a revoked login validates: the revocation fell between the issuer's read and its subscribe")
	}
	if n := h.login.watchRows() + h.login.brokerRegistrations() + guest.surrogateRows(); n != 0 {
		t.Fatalf("the refused validation left %d rows behind", n)
	}
}

// holdInvalidate is an issuer's store whose Invalidate of one record
// waits, before it changes anything, until the test releases it.
type holdInvalidate struct {
	*credrec.Store
	ref     credrec.Ref
	held    chan struct{} // closed once Invalidate(ref) is waiting
	release chan struct{}
}

func (s *holdInvalidate) Invalidate(ref credrec.Ref) error {
	if ref == s.ref {
		close(s.held)
		<-s.release
	}
	return s.Store.Invalidate(ref)
}

// TestRevocationLeavesBeforeItReturns: a revocation's Modified events
// leave before the call that made it returns, whatever else the issuer
// is doing. Alice's logout is held inside its store write while Bob
// logs out; Bob's Exit returns, and Conf already refuses the
// certificate it derived from Bob's login. One revocation never waits
// for another.
func TestRevocationLeavesBeforeItReturns(t *testing.T) {
	store := &holdInvalidate{Store: credrec.NewStore(), held: make(chan struct{}), release: make(chan struct{})}
	h := newHarnessWith(t, Options{Store: store}, Options{})
	if err := h.conf.AddRolefile("guest", guestRolefile); err != nil {
		t.Fatal(err)
	}
	enter := func(user string) (ids.ClientID, *cert.RMC, *cert.RMC) {
		c := h.client(user)
		login := h.logOn(t, c, user)
		rmc, err := h.conf.Enter(EnterRequest{Client: c, Rolefile: "guest", Role: "Guest", Creds: []*cert.RMC{login}})
		if err != nil {
			t.Fatal(err)
		}
		return c, login, rmc
	}
	alice, aliceLogin, aliceGuest := enter("alice")
	bob, bobLogin, bobGuest := enter("bob")

	store.ref = aliceLogin.CRR
	done := make(chan error, 1)
	go func() { done <- h.login.Exit(aliceLogin, alice) }()
	<-store.held
	if err := h.login.Exit(bobLogin, bob); err != nil {
		t.Errorf("Bob's Exit: %v", err)
	} else if h.conf.Validate(bobGuest, bob) == nil {
		t.Error("Bob's Exit returned and Conf still validates his certificate: his revocation waits for Alice's")
	}
	if err := h.conf.Validate(aliceGuest, alice); err != nil {
		t.Errorf("Alice's certificate refused before her logout reached the store: %v", err)
	}
	close(store.release)
	if err := <-done; err != nil {
		t.Fatalf("Alice's Exit: %v", err)
	}
	if h.conf.Validate(aliceGuest, alice) == nil {
		t.Fatal("Alice's Exit returned and Conf still validates her certificate")
	}
}

// relay stands on one bus.Network for a service registered on another.
type relay struct {
	call    func(from, op string, arg any) (any, error)
	deliver func(event.Notification)
}

func (r relay) Call(from, op string, arg any) (any, error) { return r.call(from, op, arg) }
func (r relay) Deliver(n event.Notification)               { r.deliver(n) }

// relayTo registers name on net as a plain relay to the endpoint of
// that name on target; what net sends it goes to deliver (nil drops it).
func relayTo(t *testing.T, net *bus.Network, name string, target *bus.Network, deliver func(event.Notification)) {
	t.Helper()
	if deliver == nil {
		deliver = func(event.Notification) {}
	}
	if err := net.Register(name, relay{
		call:    func(from, op string, arg any) (any, error) { return target.Call(from, name, op, arg) },
		deliver: deliver,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestModifiedOvertakingValidateReplyIsNotLost: issuer and watcher sit
// on two networks, and the link between them runs a logout after the
// issuer has answered validate and before the watcher sees the answer —
// the Modified event overtakes the reply, as it may between two
// daemons. The watcher's row must exist before it asks.
func TestModifiedOvertakingValidateReplyIsNotLost(t *testing.T) {
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	loginNet, guestNet := bus.NewNetwork(clk), bus.NewNetwork(clk)
	h := &harness{clk: clk, net: loginNet, hosts: make(map[string]*ids.HostAuthority)}
	var err error
	if h.login, err = New("Login", clk, loginNet, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := h.login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	var afterValidate func()
	if err := guestNet.Register("Login", relay{
		call: func(from, op string, arg any) (any, error) {
			res, err := loginNet.Call(from, "Login", op, arg)
			if op == "validate" && afterValidate != nil {
				afterValidate()
				afterValidate = nil
			}
			return res, err
		},
		deliver: func(event.Notification) {},
	}); err != nil {
		t.Fatal(err)
	}
	guest := addGuest(t, clk, guestNet)
	relayTo(t, loginNet, "Guest", guestNet, guest.Deliver)

	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	answered := false
	afterValidate = func() {
		answered = true
		if err := h.login.Exit(login, c); err != nil {
			t.Fatal(err)
		}
	}
	rmc, err := enterGuest(guest, c, login)
	if !answered {
		t.Fatal("the foreign entry never called validate")
	}
	if err == nil && guest.Validate(rmc, c) == nil {
		t.Fatal("a Guest certificate derived from a logged-out login validates: the Modified event that overtook the validate reply found no row")
	}
	if n := h.login.watchRows() + h.login.brokerRegistrations() + guest.surrogateRows(); n != 0 {
		t.Fatalf("the refused validation left %d rows behind", n)
	}

	// The link is an ordinary one otherwise: the next session's Guest
	// certificate lives until its logout.
	login2 := h.logOn(t, c, "dm")
	rmc2, err := enterGuest(guest, c, login2)
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Validate(rmc2, c); err != nil {
		t.Fatal(err)
	}
	if err := h.login.Exit(login2, c); err != nil {
		t.Fatal(err)
	}
	if guest.Validate(rmc2, c) == nil {
		t.Fatal("Guest certificate survived an ordinary logout")
	}
}

// watchTables is the size of the three tables a watch occupies — the
// issuer's row, the watcher's row and its handlers — and of the
// issuer's broker registrations, which a watch must not occupy.
type watchTables struct {
	watchRows, brokerRegs, surrogateRows, handlers int
}

func sizeWatchTables(issuer, watcher *Service) watchTables {
	return watchTables{issuer.watchRows(), issuer.brokerRegistrations(),
		watcher.surrogateRows(), watcher.receiverHandlers()}
}

// TestWatchTablesTrackLiveRecords: what a watch allocates lives as long
// as the watched record can still change, not as long as the process.
func TestWatchTablesTrackLiveRecords(t *testing.T) {
	const n = 50
	h := newHarness(t)
	guest := addGuest(t, h.clk, h.net)
	cycle := func(user string) {
		t.Helper()
		c := h.client("ely")
		login := h.logOn(t, c, user)
		rmc, err := enterGuest(guest, c, login)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.login.Exit(login, c); err != nil {
			t.Fatal(err)
		}
		if guest.Validate(rmc, c) == nil {
			t.Fatal("Guest certificate survived logout")
		}
	}
	sweep := func() {
		h.login.Store().Sweep()
		guest.Store().Sweep()
	}
	// One cycle first: a peer's broker session and a source's Modified
	// handler are per peer, not per record, and stay.
	cycle("warm-up")
	sweep()
	base := sizeWatchTables(h.login, guest)
	if base.brokerRegs != 0 {
		t.Fatalf("the issuer's broker holds %d registrations: a watch is its row, nothing more", base.brokerRegs)
	}
	liveLogin, liveGuest := h.login.Store().Live(), guest.Store().Live()

	for i := 0; i < n; i++ {
		cycle("dm")
	}
	sweep()
	if got := sizeWatchTables(h.login, guest); got != base {
		t.Fatalf("after %d login → Guest → logout cycles and a sweep the watch tables hold %+v, before them %+v", n, got, base)
	}
	if l, g := h.login.Store().Live(), guest.Store().Live(); l != liveLogin || g != liveGuest {
		t.Fatalf("live records after the sweep: Login %d, Guest %d; before the loop %d, %d", l, g, liveLogin, liveGuest)
	}

	// One session kept alive through another n cycles: exactly its rows
	// remain, and they still carry its logout.
	c := h.client("cam")
	login := h.logOn(t, c, "jmb")
	kept, err := enterGuest(guest, c, login)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cycle("dm")
	}
	sweep()
	want := base
	want.watchRows++
	want.surrogateRows++
	if got := sizeWatchTables(h.login, guest); got != want {
		t.Fatalf("with one session alive the watch tables hold %+v, want %+v", got, want)
	}
	if err := guest.Validate(kept, c); err != nil {
		t.Fatalf("the surviving session's Guest certificate: %v", err)
	}
	if err := h.login.Exit(login, c); err != nil {
		t.Fatal(err)
	}
	if guest.Validate(kept, c) == nil {
		t.Fatal("the surviving session's watch no longer delivers: Guest certificate outlived the logout")
	}
	sweep()
	if got := sizeWatchTables(h.login, guest); got != base {
		t.Fatalf("after the last logout the watch tables hold %+v, want %+v", got, base)
	}
}

// rowPeer is a bare watcher: an endpoint that feeds what the issuer
// sends it through a receiver, as a watching service would. Tests ask
// validate+Watch in its name.
type rowPeer struct {
	recv       *event.Receiver
	gaps       int
	modified   []event.Event
	registered int // notifications naming a broker registration
}

func addRowPeer(t *testing.T, net *bus.Network, name string) *rowPeer {
	t.Helper()
	p := &rowPeer{}
	p.recv = event.NewReceiver(func(string) { p.gaps++ })
	p.recv.HandleFrom("Login", 0, func(ev event.Event) { p.modified = append(p.modified, ev) })
	if err := net.Register(name, relay{
		call: func(string, string, any) (any, error) { return nil, nil },
		deliver: func(n event.Notification) {
			if n.RegID != 0 {
				p.registered++
			}
			p.recv.Deliver(n)
		},
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestModifiedReachesOnlyTheRow: the issuer's row is the one table that
// says who hears of a record. A change of A reaches A's two watchers
// once each, numbered in one stream with the heartbeats around it, and
// B's watcher not at all; a permanent transition is the row's last
// event and takes the row with it.
func TestModifiedReachesOnlyTheRow(t *testing.T) {
	h := newHarness(t)
	peers := map[string]*rowPeer{}
	for _, name := range []string{"PA1", "PA2", "PB"} {
		peers[name] = addRowPeer(t, h.net, name)
	}
	c := h.client("ely")
	a, b := h.logOn(t, c, "dm"), h.logOn(t, c, "jmb")
	for name, rmc := range map[string]*cert.RMC{"PA1": a, "PA2": a, "PB": b} {
		for i := 0; i < 2; i++ { // asking twice is one watch
			res, err := h.net.Call(name, "Login", "validate", ValidateArg{Cert: rmc, Client: c, Watch: true})
			if err != nil || res.(ValidateReply).State != credrec.True {
				t.Fatalf("%s validate: %v %v", name, res, err)
			}
		}
	}
	if n := h.login.watchRows(); n != 3 {
		t.Fatalf("%d watch rows, want 3", n)
	}
	h.login.HeartbeatTick()
	if err := h.login.Store().SetState(a.CRR, credrec.False); err != nil {
		t.Fatal(err)
	}
	h.login.HeartbeatTick()
	if err := h.login.Store().SetState(a.CRR, credrec.True); err != nil {
		t.Fatal(err)
	}
	h.login.HeartbeatTick()
	if n := h.login.watchRows(); n != 3 {
		t.Fatalf("after A's non-permanent changes %d watch rows, want 3", n)
	}
	if err := h.login.Exit(a, c); err != nil {
		t.Fatal(err)
	}
	h.login.HeartbeatTick()
	if n := h.login.watchRows(); n != 1 {
		t.Fatalf("after A's revocation %d watch rows, want B's 1", n)
	}
	if err := h.login.Store().SetState(a.CRR, credrec.True); err == nil {
		t.Fatal("a revoked record took a new state")
	}

	ref := refString(a.CRR)
	want := []struct {
		st   credrec.State
		perm int64
	}{{credrec.False, 0}, {credrec.True, 0}, {credrec.False, 1}}
	for _, name := range []string{"PA1", "PA2"} {
		p := peers[name]
		if p.gaps != 0 || p.registered != 0 {
			t.Errorf("%s saw %d sequence gaps and %d notifications naming a registration", name, p.gaps, p.registered)
		}
		if len(p.modified) != len(want) {
			t.Fatalf("%s heard %d Modified events, want %d: %v", name, len(p.modified), len(want), p.modified)
		}
		for i, ev := range p.modified {
			if ev.Name != ModifiedEvent || ev.Args[0].S != ref ||
				credrec.State(ev.Args[1].I) != want[i].st || ev.Args[2].I != want[i].perm {
				t.Errorf("%s event %d: %v, want %s %v perm %d", name, i, ev, ref, want[i].st, want[i].perm)
			}
		}
	}
	if pb := peers["PB"]; len(pb.modified) != 0 || pb.gaps != 0 {
		t.Errorf("B's watcher heard %v with %d gaps", pb.modified, pb.gaps)
	}
}

// TestWatchersRaceRevocation: eight services validate and watch one
// record while it is revoked. Whichever side of the revocation each
// lands on, none is left believing the record, and the issuer keeps no
// row for it.
func TestWatchersRaceRevocation(t *testing.T) {
	const watchers, rounds = 8, 20
	h := newHarness(t)
	guests := make([]*Service, watchers)
	for i := range guests {
		g, err := New(fmt.Sprintf("Watcher%d", i), h.clk, h.net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		guests[i] = g
	}
	c := h.client("ely")
	for r := 0; r < rounds; r++ {
		login := h.logOn(t, c, "dm")
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, g := range guests {
			wg.Add(1)
			go func(g *Service) {
				defer wg.Done()
				<-start
				_, _, _ = g.WatchCertificate(login, c) // refused once the revocation lands first
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := h.login.Exit(login, c); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
	}
	for _, g := range guests {
		g.Store().Externals(func(local credrec.Ref, name string, _ bool) {
			if st, _, _ := g.Store().Resolve(local); st == credrec.True {
				t.Errorf("%s: surrogate %s reads true after its record's revocation", g.Name(), name)
			}
		})
	}
	if n := h.login.watchRows(); n != 0 {
		t.Errorf("the issuer keeps %d watch rows for revoked records", n)
	}
}
