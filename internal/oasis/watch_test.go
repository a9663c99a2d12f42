package oasis

import (
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

// watchTables is the size of the four tables a watch occupies: two at
// the issuer, two at the watcher.
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
	want.brokerRegs++
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
