package oasis

import (
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/ids"
)

// TestIssuerRestartUnderLiveWatcher: ROADMAP finding (iii)'s issuer row.
// Login is rebuilt over its store while Guest stays up, as a daemon
// restarted on its -store-dir would be. The record graph survives; the
// watch table and the broker's sessions do not (docs/STORAGE.md), so the
// watcher's next resync has to be what puts its watches back: a resync
// answered as an anonymous read brings the surrogate back to True with
// nothing behind it, and a new incarnation numbering its sessions from 1
// again has its notifications dropped as replays of the old stream while
// their arrival still counts as liveness.
func TestIssuerRestartUnderLiveWatcher(t *testing.T) {
	const period = 5 * time.Second
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	store := credrec.NewStore()
	guestNet := bus.NewNetwork(clk)
	guest, err := New("Guest", clk, guestNet, Options{HeartbeatEvery: period, FailsafeMissed: 3, AutoResync: true})
	if err != nil {
		t.Fatal(err)
	}

	// boot starts an incarnation of Login on a network of its own and
	// points both relays at it; the previous incarnation's notifications
	// stop arriving, as a dead process's do.
	var current *bus.Network
	if err := guestNet.Register("Login", relay{
		call:    func(from, op string, arg any) (any, error) { return current.Call(from, "Login", op, arg) },
		deliver: func(event.Notification) {},
	}); err != nil {
		t.Fatal(err)
	}
	boot := func() *Service {
		t.Helper()
		net := bus.NewNetwork(clk)
		login, err := New("Login", clk, net, Options{Store: store, HeartbeatEvery: period})
		if err != nil {
			t.Fatal(err)
		}
		if err := login.AddRolefile("main", loginRolefile); err != nil {
			t.Fatal(err)
		}
		relayTo(t, net, "Guest", guestNet, func(n event.Notification) {
			if current == net {
				guest.Deliver(n)
			}
		})
		current = net
		return login
	}
	h := &harness{clk: clk, hosts: make(map[string]*ids.HostAuthority)}
	h.login = boot()
	if err := guest.AddRolefile("main", guestRolefile); err != nil {
		t.Fatal(err)
	}
	tick := func() {
		clk.Advance(period)
		h.login.HeartbeatTick()
		guest.SuspicionTick()
	}

	a := h.client("ely")
	loginA := h.logOn(t, a, "dm")
	guestA, err := enterGuest(guest, a, loginA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // the old stream runs its sequence up
		tick()
	}
	if err := guest.Validate(guestA, a); err != nil {
		t.Fatalf("before the restart: %v", err)
	}

	h.login = boot()
	if n := h.login.watchRows() + h.login.brokerRegistrations(); n != 0 {
		t.Fatalf("the new incarnation starts with %d watch rows", n)
	}
	for i := 0; i < 4 && guest.SourceStatus("Login") != SourceFailed; i++ {
		tick()
	}
	if st := guest.SourceStatus("Login"); st != SourceFailed {
		t.Fatalf("Login is %v at Guest after a restart's silence, want failed", st)
	}
	wantRevoked(t, guest.Validate(guestA, a), "while the issuer is failed")

	// A second user's entry is Guest's first contact with the new
	// incarnation, and opens its first session there.
	b := h.client("cam")
	loginB := h.logOn(t, b, "jmb")
	guestB, err := enterGuest(guest, b, loginB)
	if err != nil {
		t.Fatal(err)
	}
	tick()
	if st := guest.SourceStatus("Login"); st != SourceAlive {
		t.Fatalf("Login is %v at Guest after the resync, want alive", st)
	}
	if err := guest.Validate(guestA, a); err != nil {
		t.Fatalf("the resync did not bring the pre-restart session back: %v", err)
	}
	// Exactly the rows the resync re-created (A) and the entry made (B).
	want := watchTables{watchRows: 2, brokerRegs: 0, surrogateRows: 2, handlers: 1}
	if got := sizeWatchTables(h.login, guest); got != want {
		t.Errorf("after the resync the watch tables hold %+v, want %+v", got, want)
	}

	if err := h.login.Exit(loginA, a); err != nil {
		t.Fatal(err)
	}
	tick()
	if guest.Validate(guestA, a) == nil {
		t.Fatalf("UNSAFE: a heartbeat period after the logout was acknowledged Guest still validates the derived certificate (Login is %v at Guest)",
			guest.SourceStatus("Login"))
	}
	if err := guest.Validate(guestB, b); err != nil {
		t.Fatalf("the other session went with it: %v", err)
	}
	want = watchTables{watchRows: 1, brokerRegs: 0, surrogateRows: 1, handlers: 1}
	if got := sizeWatchTables(h.login, guest); got != want {
		t.Errorf("after the logout the watch tables hold %+v, want %+v", got, want)
	}
}

// TestResyncTellsOnlyTheCaller: the reply carries what a resync has to
// say, and a peer's resync is nobody else's traffic. The second watcher
// sits behind a relay that counts what is delivered to it.
func TestResyncTellsOnlyTheCaller(t *testing.T) {
	h := newHarness(t)
	guest := addGuest(t, h.clk, h.net)
	otherNet := bus.NewNetwork(h.clk)
	relayTo(t, otherNet, "Login", h.net, nil)
	other, err := New("Other", h.clk, otherNet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AddRolefile("main", guestRolefile); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	relayTo(t, h.net, "Other", otherNet, func(n event.Notification) {
		delivered++
		other.Deliver(n)
	})

	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	if _, err := enterGuest(guest, c, login); err != nil {
		t.Fatal(err)
	}
	otherCert, err := enterGuest(other, c, login)
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.ResyncSource("Login"); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("Guest's resync sent %d notification(s) to Other", delivered)
	}
	// Other's watch is untouched by it.
	if err := h.login.Exit(login, c); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 || other.Validate(otherCert, c) == nil {
		t.Fatalf("the logout reached Other as %d notification(s); its certificate must be revoked by exactly one", delivered)
	}
}

// TestWatcherRestartHoldingSurrogates: ROADMAP finding (iii)'s watcher
// row, the mirror of TestIssuerRestartUnderLiveWatcher. Guest is rebuilt
// over its store while Login stays up, as a daemon restarted on its
// -store-dir would be. The surrogates come back from the store, and the
// rows, handlers and suspicion beside them must come back from their
// names: a surrogate nothing feeds would validate for good.
func TestWatcherRestartHoldingSurrogates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(t *testing.T) credrec.Recorder
	}{
		{"Store", func(*testing.T) credrec.Recorder { return credrec.NewStore() }},
		{"Sharded4", func(t *testing.T) credrec.Recorder {
			ss, err := credrec.NewShardedStore([]string{"s0", "s1", "s2", "s3"}, 0)
			if err != nil {
				t.Fatal(err)
			}
			return ss
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { watcherRestart(t, tc.store(t)) })
	}
}

func watcherRestart(t *testing.T, store credrec.Recorder) {
	const period = 5 * time.Second
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	loginNet := bus.NewNetwork(clk)
	h := &harness{clk: clk, net: loginNet, hosts: make(map[string]*ids.HostAuthority)}
	var err error
	if h.login, err = New("Login", clk, loginNet, Options{HeartbeatEvery: period}); err != nil {
		t.Fatal(err)
	}
	if err := h.login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}

	// boot starts an incarnation of Guest on a network of its own; what
	// Login sends Guest reaches the current incarnation only, as a dead
	// process hears nothing.
	var guest *Service
	var current *bus.Network
	if err := loginNet.Register("Guest", relay{
		call:    func(from, op string, arg any) (any, error) { return current.Call(from, "Guest", op, arg) },
		deliver: func(n event.Notification) { guest.Deliver(n) },
	}); err != nil {
		t.Fatal(err)
	}
	boot := func() *Service {
		t.Helper()
		net := bus.NewNetwork(clk)
		relayTo(t, net, "Login", loginNet, nil)
		g, err := New("Guest", clk, net, Options{Store: store, HeartbeatEvery: period, FailsafeMissed: 3, AutoResync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AddRolefile("main", guestRolefile); err != nil {
			t.Fatal(err)
		}
		current = net
		return g
	}
	guest = boot()
	tick := func() {
		clk.Advance(period)
		h.login.HeartbeatTick()
		guest.SuspicionTick()
	}

	a := h.client("ely")
	loginA := h.logOn(t, a, "dm")
	guestA, err := enterGuest(guest, a, loginA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tick()
	}
	if err := guest.Validate(guestA, a); err != nil {
		t.Fatalf("before the restart: %v", err)
	}

	guest = boot()
	if guest.Validate(guestA, a) == nil {
		t.Errorf("UNSAFE: right after the restart Guest validates a certificate nothing feeds (Login is %v at Guest)",
			guest.SourceStatus("Login"))
	}
	tick()
	if st := guest.SourceStatus("Login"); st != SourceAlive {
		t.Fatalf("Login is %v at Guest a heartbeat after the restart, want alive", st)
	}
	if err := guest.Validate(guestA, a); err != nil {
		t.Fatalf("the first heartbeat's resync did not bring the session back: %v", err)
	}

	if err := h.login.Exit(loginA, a); err != nil {
		t.Fatal(err)
	}
	tick()
	if guest.Validate(guestA, a) == nil {
		t.Fatalf("UNSAFE: a heartbeat period after the logout was acknowledged Guest still validates the derived certificate (Login is %v at Guest)",
			guest.SourceStatus("Login"))
	}
}

// TestRestartRevokesUnnamedSurrogates: a surrogate created under its
// source's name alone, as every one was before surrogates were named,
// says nothing of what it mirrors, so no resync can feed it again. The
// first boot on such a store revokes it and what derives from it.
func TestRestartRevokesUnnamedSurrogates(t *testing.T) {
	store := credrec.NewStore()
	derived := store.NewDerived(credrec.OpAnd, credrec.Of(store.NewExternal("Login", credrec.True)))
	if _, err := New("Guest", clock.NewVirtual(time.Unix(0, 0)), nil, Options{Store: store}); err != nil {
		t.Fatal(err)
	}
	if st, perm, _ := store.Resolve(derived); st != credrec.False || !perm {
		t.Fatalf("a record over an unnamed surrogate is %v (permanent %v) after the restart, want permanently false", st, perm)
	}
}
